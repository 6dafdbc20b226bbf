#!/usr/bin/env bash
# Prints the source line counts (.h + .cc) of the libraries the TEE-side
# replayer is built from — the replay-side trusted code base — and their
# total. ROADMAP.md tracks this number; it is reported, not gated.
# src/hw/regs is counted on its own line: the verifier and the planopt
# checker run on its register map at every Load, so facts moved into it
# stay in the count. So is src/common/sha256 (with its block-function
# header): the store's Install and LoadShared and the replayer's
# LoadSigned run it inside the TEE.
#
# Usage: scripts/tcb_loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."

loc() { cat "$@" | wc -l; }

analysis=$(loc src/analysis/*.h src/analysis/*.cc src/analysis/footprint/*)
recfmt=$(loc src/record/{log,recording,diff}.{h,cc})
record=$(loc src/record/{recorder,page_snapshot,plan,replayer,layered,store}.{h,cc} \
  src/analysis/planopt/*)
tee=$(loc src/tee/*.{h,cc})
regs=$(loc src/hw/regs.{h,cc})
sha256=$(loc src/common/sha256.{h,cc} src/common/sha256_internal.h)

printf '%-13s %6d  (verifier, footprint)\n' grt_analysis "${analysis}"
printf '%-13s %6d  (log, container, diff)\n' grt_recfmt "${recfmt}"
printf '%-13s %6d  (recorder, page snapshot, plan, replayer, layered, store, planopt)\n' \
  grt_record "${record}"
printf '%-13s %6d  (TZASC, session, SoC)\n' grt_tee "${tee}"
printf '%-13s %6d  (register map, from grt_hw)\n' hw/regs "${regs}"
printf '%-13s %6d  (SHA-256 and HMAC, from grt_common)\n' common/sha256 \
  "${sha256}"
printf '%-13s %6d\n' total $((analysis + recfmt + record + tee + regs + sha256))
