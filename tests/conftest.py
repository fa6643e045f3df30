from hypothesis import HealthCheck, settings

settings.register_profile(
    "aprings",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("aprings")
