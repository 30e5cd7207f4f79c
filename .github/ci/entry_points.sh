#!/usr/bin/env bash
# Runs every entry point whose outputs CI compares, under -W error (a new
# overflow, divide or invalid-value warning, or an unclosed file, fails),
# and writes them under OUT.  PREFIX, if given, goes in front of each
# python: `taskset -c 0`, or `env OPENBLAS_CORETYPE=Prescott`.  Run it from
# the repository root.  The output directory is written into the files, so
# byte comparisons need two runs with the same OUT.
#
# usage: .github/ci/entry_points.sh OUT [PREFIX...]
set -eu
out=$1
shift
prefix=("$@")
export PYTHONPATH=src:perfbench
py() { "${prefix[@]}" python -W error "$@"; }
tikbary() { py -m tikbary "$@" > /dev/null; }
mkdir -p "$out/cli"

# The desk suite.  The fit tables of fig1, fig2, fig5 and sweep go through
# the blocked GEMMs of evaluate's values, which OpenBLAS may thread; fig3
# runs the quotient form and fig4 stacks its sample vectors through it
tikbary run --experiment fig1 --scale desk --out "$out/desk/fig1"
tikbary run --experiment fig2 --scale desk --out "$out/desk/fig2"
tikbary run --experiment fig3 --scale desk --out "$out/desk/fig3"
tikbary run --experiment fig4 --scale desk --out "$out/desk/fig4"
tikbary run --experiment fig5 --scale desk --out "$out/desk/fig5"
tikbary run --experiment sweep --scale desk --out "$out/desk/sweep"
# at paper scale the quotient form's calls hold enough blocks for two row
# shares; fig4 runs four stacked sample vectors through it
tikbary run --experiment fig3 --scale paper --out "$out/paper/fig3"
tikbary run --experiment fig4 --scale paper --out "$out/paper/fig4"
# custom's own front end to the error tables, on the closed-form Chebyshev
# rule and on the recurrence rules of Legendre and Jacobi, which no
# Chebyshev run reaches; Chebyshev second kind is the one symmetric spec
# whose recurrence takes its two-pass step from k = 1
tikbary run --experiment custom --L 20 --N 40 --out "$out/custom/chebyshev1"
tikbary run --experiment custom --L 20 --N 40 --basis legendre --out "$out/custom/legendre"
tikbary run --experiment custom --L 20 --N 40 --basis 'jacobi(0.3,-0.25)' --out "$out/custom/jacobi"
tikbary run --experiment custom --L 20 --N 40 --basis 'jacobi(0.5,0.5)' --out "$out/custom/cheb2"
# the sweep subcommand's front end, with the Airy-based f2, and its
# noise-free default grid
tikbary sweep --L 30 --N 40 --fn f2 --seed 7 --out "$out/sweep/f2"
tikbary sweep --L 16 --no-noise --out "$out/sweep/no_noise"
# a large recurrence rule, and the fit subcommand
tikbary quadrature-dump --basis legendre --points 701 --out "$out/cli/rule.csv"
# a jacobi(a,b) rule whose dense eigensolve is large enough at 2001 points
# for OpenBLAS to thread its BLAS-3 reduction; the polishing step must
# still give the same bytes on one worker and on two
tikbary quadrature-dump --basis 'jacobi(20,-0.9)' --points 2001 --out "$out/cli/jacobi2001.csv"
tikbary fit --L 8 --N 16 --fn f1 --lambda 0.1995 --out "$out/cli/fit.csv"
# 1001 points at N = 60 run as one share; 300 points at N = 1000 as two
# shares of 150 rows, each three blocks of at most 57 rows
tikbary interp --N 60 --fn f3 --lambda 0.1995 --out "$out/cli/interp60.csv"
tikbary interp --N 1000 --eval-points 300 --fn f3 --lambda 0.1995 --out "$out/cli/interp1000.csv"
# Lebesgue constants at L = N from the first-kind Lebesgue function and at
# (L, N) = (200, 400) from the Christoffel-Darboux one, whose rows near a
# node take the kernel product one ddot an entry, not as a GEMM
py -c 'import json, workloads; print(json.dumps(workloads.run_bounds(12345), sort_keys=True))' > "$out/bounds.json"
# The block walk, one table of rows per probe, shaped like bounds.json:
# the quotient form at N = 800 on the bounds grid with every node among its
# points, so that node hits fall in every share; the stacked first kind at
# N = 1000, whose node polynomial takes its logs in the rows of the work
# table; and the Lebesgue function at (L, N) = (200, 400) on the bounds
# grid, of which run_bounds records only the maximum
py - > "$out/blocks.json" <<'EOF'
import json
import numpy as np
from tikbary.barycentric import (BarycentricData, _kernel_lebesgue_function,
                                 interp_barycentric, interp_modified_lagrange,
                                 weights_gauss)
from tikbary.basis import BasisSpec
from tikbary.metrics import default_uniform_grid
from tikbary.quadrature import gauss_rule
from tikbary.signals import f1, f3

def rows(values):
    return values.reshape(len(values), -1).tolist()

rule = gauss_rule(BasisSpec.chebyshev1(), 801)
x = np.union1d(default_uniform_grid(), rule.nodes)
data = BarycentricData(rule.nodes, weights_gauss(rule), f3(rule.nodes), 0.1995)
tables = {"quotient": rows(interp_barycentric(data, x))}
rule = gauss_rule(BasisSpec.chebyshev1(), 1001)
values = np.column_stack([f1(rule.nodes), f3(rule.nodes)])
data = BarycentricData(rule.nodes, weights_gauss(rule), values, 0.1995)
tables["first_kind"] = rows(interp_modified_lagrange(data, np.linspace(-1.0, 1.0, 12002)))
rule = gauss_rule(BasisSpec.chebyshev1(), 401)
x = np.union1d(default_uniform_grid(), rule.nodes)
tables["lebesgue_below"] = rows(_kernel_lebesgue_function(rule, 200, x))
print(json.dumps(tables, sort_keys=True))
EOF
