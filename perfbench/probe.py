"""Fresh-interpreter probes, started and waited for by run.py.

  probe.py setup SRC_DIR OPS_JSON
      Do what every harmspec command line does before its first operation:
      import harmspec.cli, parse the operations' arguments and load their
      inputs. run.py times the whole process.

  probe.py rss SRC_DIR OPS_JSON DEADLINE_S
      Run each operation once through harmspec.cli.main under the deadline
      and print the process's peak resident memory in KiB. It is read from
      VmHWM, which starts afresh at exec; getrusage's ru_maxrss would carry
      over the peak of the parent that started the probe.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

mode, src, ops = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path.insert(0, src)

from harmspec import cli  # noqa: E402

if mode == "setup":
    from harmspec.audit import default_baseline
    from harmspec.graphs import read_graph6_file

    parser = cli.build_parser()
    for argv in ops:
        args = parser.parse_args(argv)
        if getattr(args, "from_file", None):
            read_graph6_file(args.from_file)
        if args.command == "audit":
            default_baseline()
elif mode == "rss":
    from deadline import DeadlineExceeded, deadline

    for argv in ops:
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()), \
                    deadline(float(sys.argv[4])):
                cli.main(argv)
        except DeadlineExceeded:
            pass
    with open("/proc/self/status", encoding="ascii") as fh:
        print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
else:
    sys.exit(f"unknown probe mode {mode!r}")
