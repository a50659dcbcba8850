"""Misbehaving adapters for engine fault-injection tests.

Usage: python fixture_adapter.py MODE [ARG]

Modes:
    echo            answer with the first coordinates, like idkit.adapters
    wrong-id        answer every request with id+1
    garbage         answer with a non-JSON line
    sleep SECONDS   sleep before each answer
    error-always    answer {"id", "error"} for every request
    exit-now        exit 3 without reading anything
    crash-once PATH [SECONDS]
                    serve normally, but the first process to atomically
                    create PATH dies before answering its first request,
                    SECONDS (default 0) after reading it
    short-y         answer with a one-value y whatever the problem
    nan-y           answer with the echo y, its first value replaced by NaN
    bool-y          answer with a y of JSON booleans
    strict          answer with the echo y if the request's keys are exactly
                    id, problem and x, else with an error

If FIXTURE_PID_DIR is set, every mode first creates an empty file named
after its process id in that directory.
"""

import json
import os
import sys
import time


def serve(transform):
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        req = json.loads(line)
        out = transform(req)
        if out is None:
            continue
        sys.stdout.write(out + "\n")
        sys.stdout.flush()


def echo_y(req):
    dims = {"motf": 2001, "tpv": 500, "scf": 3}
    dim = dims[req["problem"]]
    y = []
    for v in req["x"][:dim]:
        try:
            y.append(float(v))
        except (TypeError, ValueError):
            y.append(0.0)
    y.extend(0.0 for _ in range(dim - len(y)))
    return y


def main():
    mode = sys.argv[1]
    pid_dir = os.environ.get("FIXTURE_PID_DIR")
    if pid_dir:
        open(os.path.join(pid_dir, str(os.getpid())), "w").close()
    if mode == "echo":
        serve(lambda r: json.dumps({"id": r["id"], "y": echo_y(r)}))
    elif mode == "wrong-id":
        serve(lambda r: json.dumps({"id": r["id"] + 1, "y": echo_y(r)}))
    elif mode == "garbage":
        serve(lambda r: "this is not json {{{")
    elif mode == "sleep":
        delay = float(sys.argv[2])

        def slow(r):
            time.sleep(delay)
            return json.dumps({"id": r["id"], "y": echo_y(r)})

        serve(slow)
    elif mode == "error-always":
        serve(lambda r: json.dumps({"id": r["id"], "error": "fixture says no"}))
    elif mode == "exit-now":
        sys.exit(3)
    elif mode == "crash-once":
        marker = sys.argv[2]
        delay = float(sys.argv[3]) if len(sys.argv) > 3 else 0.0

        def maybe_crash(r):
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                time.sleep(delay)
                os._exit(9)
            except FileExistsError:
                pass
            return json.dumps({"id": r["id"], "y": echo_y(r)})

        serve(maybe_crash)
    elif mode == "short-y":
        serve(lambda r: json.dumps({"id": r["id"], "y": [0.5]}))
    elif mode == "nan-y":
        serve(lambda r: json.dumps({"id": r["id"], "y": [float("nan")] + echo_y(r)[1:]}))
    elif mode == "bool-y":
        serve(lambda r: json.dumps({"id": r["id"], "y": [True, False, True]}))
    elif mode == "strict":

        def check_keys(r):
            if set(r) != {"id", "problem", "x"}:
                return json.dumps({"id": r["id"], "error": f"unexpected keys {sorted(r)}"})
            return json.dumps({"id": r["id"], "y": echo_y(r)})

        serve(check_keys)
    else:
        raise SystemExit(f"unknown fixture mode {mode!r}")


if __name__ == "__main__":
    main()
