"""A pool runner module that remembers which process imported it.

Only the experiment pool imports this module, through a RunSpec path
(``"tests.fork_probe:inherited_point"``); no test imports it directly.
So when a worker reports an import by another process, the supervisor
imported the module before forking that worker.
"""

import os

#: The pid of the process that executed this module's import.
IMPORTED_BY = os.getpid()


def inherited_point(tag):
    """Whether this run's process inherited the module from its parent."""
    return {"tag": tag, "inherited": IMPORTED_BY != os.getpid()}
