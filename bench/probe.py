"""Print the seconds a fresh interpreter takes to import invprox and its CLI.

Imports nothing else first, so the time covers every dependency the CLI
pulls in. The second line is the imported package's location, which the
caller checks against the checkout under test.
"""

import time

start = time.perf_counter()
import invprox.cli  # noqa: E402

print(time.perf_counter() - start)
print(invprox.cli.__file__)
