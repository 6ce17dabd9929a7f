#!/usr/bin/env bash
# Disassembly gate: no fused multiply-add in any AVX2 or AVX-512 kernel body.
#
#   scripts/check_no_fma.sh [BUILD_DIR]     # default: build
#
# The SVM lanes (libavd_ml.a) have an SSE2, an AVX2 (functions named
# *_avx2) and an AVX-512 body (*_avx512) at 8, 16 and 32 lanes. The
# grey/YCbCr, taillight-mask and resize kernels (libavd_image.a) each have
# an SSE2 body and an AVX2 body; the mask and the resize also have AVX-512
# bodies. The cell grid's rows (pass 1 and the votes) and the block
# normaliser (libavd_hog.a) have a baseline body and an AVX-512F body.
# Every body of a kernel must compute the same bits: every multiply rounds
# before its add. A compiler that contracted a wide body into vfmadd would
# change scores, pixels or histograms on such hosts only, and the pins
# would not see it on any other. Fails on any vfmadd, vfmsub or
# vfnmadd/vfnmsub in an *_avx2 or *_avx512 body of any of the three
# libraries. Also fails if a library holds no body of a kind it must have
# (AVX2 and AVX-512 in libavd_ml.a and libavd_image.a, AVX-512 in
# libavd_hog.a), or lacks one of the bodies named below: a renamed or
# dropped body would otherwise pass unchecked.
set -euo pipefail
BUILD_DIR="${1:-build}"

# library : kinds of wide body it must hold : bodies it must hold by name
status=0
for entry in \
    "src/ml/libavd_ml.a:avx2,avx512:lanes_avx512<8>,lanes_avx512<16>,lanes_avx512<32>" \
    "src/image/libavd_image.a:avx2,avx512:" \
    "src/hog/libavd_hog.a:avx512:index_rows_avx512,vote_row_avx512,block_rows_avx512"; do
  IFS=: read -r lib wants names <<<"$entry"
  path="$BUILD_DIR/$lib"
  [[ -f "$path" ]] || { echo "check_no_fma: $path not built"; exit 1; }
  objdump -d -C --no-show-raw-insn "$path" | awk -v lib="$lib" -v wants="$wants" -v names="$names" '
    BEGIN { n = split(wants, want, ","); m = split(names, name, ",") }
    /^[0-9a-f]+ <.*>:$/ { wide = /_avx(2|512)[<(]/ && !/cpu_has_avx/
                          for (i = 1; i <= n; i++)
                            if (wide && index($0, "_" want[i])) bodies[i]++
                          for (i = 1; i <= m; i++)
                            if (index($0, "::" name[i] "(")) named[i]++
                          next }
    wide && /vfn?m(add|sub)/ { print "FMA in a wide body of " lib ":", $0; bad = 1 }
    END { for (i = 1; i <= m; i++)
            if (!named[i]) { print "no " name[i] " body in " lib; bad = 1 }
          for (i = 1; i <= n; i++) {
            if (!bodies[i]) { print "no " want[i] " body in " lib; bad = 1 }
            else if (!bad) print lib ": " want[i] " bodies " bodies[i] ", no FMA"
          }
          exit bad }' || status=1
done
exit "$status"
