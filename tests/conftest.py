"""Session-wide pytest hooks."""

import os


def pytest_report_header(config):
    """Name the BLAS thread count the in-process tests run at.

    OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy loads; unset, it
    uses every core. The golden digests hold at any count: test_golden.py also
    checks the train bytes in child processes at 1 and 2 threads.
    """
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    setting = f"OPENBLAS_NUM_THREADS={threads}" if threads is not None else (
        f"OPENBLAS_NUM_THREADS unset (os.cpu_count() = {os.cpu_count()})")
    return [f"BLAS threads: {setting}"]
