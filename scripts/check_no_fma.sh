#!/usr/bin/env bash
# Disassembly gate: no fused multiply-add in any AVX2 kernel body.
#
#   scripts/check_no_fma.sh [BUILD_DIR]     # default: build
#
# The SVM lanes (libavd_ml.a) and the grey/YCbCr and resize kernels
# (libavd_image.a) each have an SSE2 body and an AVX2 body (functions named
# *_avx2) that must compute the same bits: every multiply rounds before its
# add. A compiler that contracted an AVX2 body into vfmadd would change
# scores or pixels on AVX2 hosts only, and the pins would not see it on any
# other. Fails on any vfmadd, vfmsub or vfnmadd/vfnmsub in an AVX2 body, and
# fails if a library holds no AVX2 body
# (a renamed or dropped body would otherwise pass unchecked).
set -euo pipefail
BUILD_DIR="${1:-build}"

status=0
for lib in src/ml/libavd_ml.a src/image/libavd_image.a; do
  path="$BUILD_DIR/$lib"
  [[ -f "$path" ]] || { echo "check_no_fma: $path not built"; exit 1; }
  objdump -d -C --no-show-raw-insn "$path" | awk -v lib="$lib" '
    /^[0-9a-f]+ <.*>:$/ { avx2 = /_avx2[<(]/ && !/cpu_has_avx2/
                          bodies += avx2; next }
    avx2 && /vfn?m(add|sub)/ { print "FMA in an AVX2 body of " lib ":", $0; bad = 1 }
    END { if (!bodies) print "no AVX2 body in " lib
          else if (!bad) print lib ": AVX2 bodies " bodies ", no FMA"
          exit bad || !bodies }' || status=1
done
exit "$status"
