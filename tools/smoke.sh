#!/usr/bin/env bash
# Smoke test of an installed lqdisc command: every subcommand on the
# bundled models, and the two exports over 3000 stages. Writes its outputs
# under OUT_DIR and exits non-zero at the first step that fails.
#
#     tools/smoke.sh OUT_DIR
#
# Needs `lqdisc` on PATH and a `python` that imports lqdisc and numpy.
set -eo pipefail
if [ $# -ne 1 ]; then
    echo "usage: tools/smoke.sh OUT_DIR" >&2
    exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."

# the stacked stage build for every bundled scheme, explicit and
# diagonally implicit; a scheme that fails to run fails the script
schemes=$(python -c 'from lqdisc import SCHEME_NAMES; print(*SCHEME_NAMES)')
for S in $schemes; do
    lqdisc discretize --model models/mimo_delayed.json --method doubling --scheme "$S" --verify --out "$out/scheme-$S"
done
lqdisc discretize --model models/scalar.json --method fixed --scheme esdirk4 --verify --out "$out/scalar"
lqdisc validate --count 9
lqdisc convergence --model models/mimo_delayed.json --method doubling --scheme rk4 --steps 64,128 --verify --out "$out/conv"
lqdisc bench --model models/scalar.json --reps 5 --out "$out/bench"

# R_ww depends on the plant alone: scalar.json (dx = -x + u + w, Ts = 1)
# through three methods, one of them first order at 16 steps, must give
# the same R_ww, (1 - e^-2)/2 to rounding
lqdisc discretize --model models/scalar.json --method fixed --scheme explicit-euler --steps 16 --out "$out/rww-fixed"
lqdisc discretize --model models/scalar.json --method doubling --out "$out/rww-doubling"
lqdisc discretize --model models/scalar.json --method expm --out "$out/rww-expm"
python - "$out"/rww-{fixed,doubling,expm}/result.json <<'EOF'
import json, math, sys
rww = [json.load(open(path))["R_ww"] for path in sys.argv[1:]]
want = -math.expm1(-2.0) / 2.0
print("R_ww of fixed, doubling, expm:", rww, "against", want)
sys.exit(rww[1:] != rww[:-1] or not abs(rww[0][0][0] - want) <= 1e-15)
EOF

# a step outside the scheme's stability region is refused with exit 3:
# dx = -x + u at mu = 2000 and 256 steps puts dt mu/2 = 3.9 past explicit
# Euler's real stability interval, where the exact flow decays
cat > "$out/mu2000.json" <<'EOF'
{"model": {"state_space": {"A_c": [[-1.0]], "B_c": [[1.0]], "C_c": [[1.0]], "D_c": [[0.0]]}},
 "cost": {"Qc": [[1.0]], "mu": 2000.0, "Ts": 1.0, "N": 1, "zbar": [[0.0]]}}
EOF
rc=0
lqdisc discretize --model "$out/mu2000.json" --method fixed --scheme explicit-euler --steps 256 --out "$out/unstable" || rc=$?
echo "explicit-euler at 256 steps, mu = 2000: exit $rc (want 3)"
if [ "$rc" -ne 3 ] || [ -e "$out/unstable" ]; then
    exit 1
fi

# a fractional delay moves the held input at its switch time in the cost
# too: z = 2 u(t - 0.3) with Ts = 1 and mu = 0.2 reads u_{k-1} until 0.3
# and u_k after it, so every method must give
# Q = diag(4 (1 - e^-0.06), 4 (e^-0.06 - e^-0.2)) / 0.2
python - "$out/gain.json" <<'EOF'
import json, sys
channel = {"i": 1, "j": 1, "num": [2.0], "den": [1.0], "tau": 0.3}
json.dump({"model": {"transfer": {"channels": [channel]}},
           "cost": {"Qc": [[1.0]], "mu": 0.2, "Ts": 1.0, "N": 1, "zbar": [[0.0]]}},
          open(sys.argv[1], "w"))
EOF
for M in fixed doubling expm; do
    lqdisc discretize --model "$out/gain.json" --method "$M" --out "$out/gain-$M"
done
python - "$out"/gain-{fixed,doubling,expm}/result.json <<'EOF'
import json, sys
import numpy as np
want = np.diag([1.1647093283150256, 2.460675610125338])
Qs = [np.array(json.load(open(path))["Q"]) for path in sys.argv[1:]]
print("Q of fixed, doubling, expm:", [Q.tolist() for Q in Qs], "against", want.tolist())
sys.exit(not all(Q.shape == want.shape and np.abs(Q - want).max() <= 1e-12 for Q in Qs))
EOF

# 3000 discounted stages: result.json's stage arrays and the stages.csv
# table take the vectorized writers; every JSON number must still be its
# repr, and every CSV float its '%.16e'
python - "$out/long.json" <<'EOF'
import json, sys
import numpy as np
doc = json.load(open("models/mimo_delayed.json"))
doc["cost"]["N"] = 3000
doc["cost"]["zbar"] = np.random.default_rng(1).uniform(-1.0, 1.0, (3000, 2)).tolist()
json.dump(doc, open(sys.argv[1], "w"))
EOF
lqdisc discretize --model "$out/long.json" --method expm --verify --out "$out/long"
python - "$out/long/result.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]), parse_float=str)
doc.pop("provenance")
flat = lambda v: [t for x in (v.values() if isinstance(v, dict) else v) for t in flat(x)] if isinstance(v, (dict, list)) else [v]
tokens = [t for t in flat(doc) if t is not None]
bad = [t for t in tokens if t != repr(float(t))]
print(len(tokens), "number tokens,", len(bad), "not repr:", bad[:5])
sys.exit(bool(bad) or len(tokens) < 36000)
EOF
python - "$out/long/stages.csv" <<'EOF'
import sys
raw = open(sys.argv[1], "rb").read()
lines = raw.split(b"\r\n")
fields = [f for line in lines[1:-1] for f in line.decode("ascii").split(",")[1:]]
bad = [f for f in fields if f != "%.16e" % float(f)]
print(len(lines) - 1, "CRLF lines,", len(fields), "floats,", len(bad), "not %.16e:", bad[:5])
sys.exit(lines[-1] != b"" or len(lines) - 1 != 3001 or b"\n" in b"".join(lines) or bool(bad) or len(fields) != 9000)
EOF
# the file is written a chunk at a time: rebuilt from its parsed document
# with json.dumps, it must come out byte for byte, so a seam between
# chunks that breaks a separator or a bracket fails
python - "$out/long/result.json" <<'EOF'
import json, sys
raw = open(sys.argv[1], "rb").read()
doc = json.loads(raw)
ref = ("{\n" + ",\n".join(f"  \"{k}\": {json.dumps(v)}" for k, v in doc.items()) + "\n}\n").encode()
print(len(raw), "bytes;", "equal to" if ref == raw else "NOT equal to", "the text rebuilt from its parsed document")
sys.exit(ref != raw)
EOF
