"""KNB001 negative fixture: a child's environment and a plain dict."""

import os
import subprocess


def launch(command, environ):
    environ.get("PATH")
    os.environ["PYTHONPATH"] = "src"
    return subprocess.run(command, env=dict(os.environ), check=True)
