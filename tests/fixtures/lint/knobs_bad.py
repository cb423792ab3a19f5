"""KNB001 positive fixture: five environment reads, two through aliases."""

import os
from os import environ as env
from os import getenv

TURBO = "REPRO_TURBO"


def settings():
    return (
        os.environ["REPRO_JOBS"],
        os.environ.get(TURBO, ""),
        os.getenv("HOME"),
        env.get("PATH"),
        getenv("SHELL"),
    )
