"""Peak resident memory of the current process."""


def peak_rss_mb() -> float:
    """``VmHWM`` from ``/proc/self/status`` in MiB (Linux), else the
    ``ru_maxrss`` high-water mark."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
