"""Set-up probe: what one congrkit invocation does before its first check.

Imports the CLI, builds its parser and enumerates the instances of the given
families and bounds, then exits.  Run in a fresh interpreter per probe::

    python perfbench/probe.py '{"families": ["thm11"], "bounds": {"max_p": 1999}}'

An empty family list means every registered family.
"""

import json
import sys

from congrkit import cli, registry

spec = json.loads(sys.argv[1])
cli.build_parser()
registry.all_jobs(spec["families"] or registry.family_names(), spec["bounds"])
