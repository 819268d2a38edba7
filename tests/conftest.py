import logging
import time

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def free_cpus_settle(ray_session):
    """A function that waits up to 10 s for the cluster's free CPUs to
    come back to its total and returns the free count it saw last."""
    import ray

    total = ray.cluster_resources()["CPU"]

    def settle() -> float:
        deadline = time.monotonic() + 10
        while True:
            free = ray.available_resources().get("CPU", 0.0)
            if free >= total or time.monotonic() > deadline:
                return free
            time.sleep(0.2)

    return settle


class _Counter(logging.Handler):
    """Ray Data executions started and schema-mismatch warnings, from the
    ``ray.data`` logger (perfbench's ``RayDataCounter`` reads the same
    two messages)."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.executions = self.schema_warnings = 0

    def emit(self, record):
        msg = record.getMessage()
        if msg.startswith("Starting execution of Dataset"):
            self.executions += 1
        elif "with a different schema" in msg:
            self.schema_warnings += 1


@pytest.fixture
def ray_data_log():
    """A :class:`_Counter` on the ``ray.data`` logger (at DEBUG) for the
    test's duration."""
    log = logging.getLogger("ray.data")
    counter, level = _Counter(), log.level
    log.addHandler(counter)
    log.setLevel(logging.DEBUG)
    try:
        yield counter
    finally:
        log.removeHandler(counter)
        log.setLevel(level)
