"""Byte and time unit helpers used in cost accounting and reports."""

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


def minutes(seconds):
    """Convert seconds to minutes (Table 1 reports build times in minutes)."""
    return seconds / 60.0
