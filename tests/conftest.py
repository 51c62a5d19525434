"""Session-wide pytest hooks."""

import os


def pytest_report_header(config):
    """Name the BLAS thread count: two golden digests depend on it.

    OpenBLAS rounds some float32 GEMMs differently at one thread than at two or
    more, and it reads ``OPENBLAS_NUM_THREADS`` once, when numpy loads; unset,
    it uses every core.
    """
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    setting = f"OPENBLAS_NUM_THREADS={threads}" if threads is not None else (
        f"OPENBLAS_NUM_THREADS unset (os.cpu_count() = {os.cpu_count()})")
    return [f"BLAS threads: {setting}",
            "test_golden.py: test_train_bytes and test_chunked_train_bytes pin digests "
            "computed at 2 BLAS threads; they differ at 1"]
