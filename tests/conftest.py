import logging

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
