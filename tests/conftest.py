"""Imported by pytest before any test module.

`onoma` is imported first, before numpy, so numpy's OpenBLAS starts with one
thread as it does in the `onoma` command, and `typology.ward_cluster` may
fork this process as it forks the command's.
"""

import onoma  # noqa: F401
