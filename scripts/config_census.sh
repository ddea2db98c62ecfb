#!/usr/bin/env bash
# Config census: every field of every `*Config` / `*Policy` / `*Spec`
# struct in src/, with the number of lines outside tests/ that assign it
# (`.field =`, `+=`, `-=`, or a sub-field of it; `=` may end the line
# when the value starts on the next).
#
#   scripts/config_census.sh          # "hits  Struct::field", fewest first
#   scripts/config_census.sh --check  # exit 1 on an unlisted 0-hit field
#
# A 0 is a field nothing but tests sets: fold it into a constant beside
# its reader. --check fails on any 0-hit field missing from ALLOWLIST
# below, and on any ALLOWLIST entry that is no longer a 0-hit field, so
# the list cannot go stale. Hits are per name, not per struct: common
# names (`team`, `seed`, `policy`) collide across structs, so open the
# hits of any low count before trusting it. Fields filled by aggregate
# init or `push_back` read 0 too.
set -euo pipefail
cd "$(dirname "$0")/.."

# Struct::field  why it stays a field with no setter outside tests.
ALLOWLIST='
ArbitrageConfig::outcome_aware  decided with refund_unplaced (ROADMAP 9)
ClockAuctionConfig::price_caps  the §III.B price-cap extension
FaultConfig::max_retries        lossy-wire tests vary the retry budget
MarketConfig::audit_system      frozen planetbench reads it
MarketConfig::demand_engine     frozen planetbench reads it
MarketConfig::endowment         frozen planetbench reads it
MarketConfig::supply_fraction   frozen planetbench reads it
EndowmentPolicy::minimum        folds together with MarketConfig::endowment
ScenarioSpec::events            filled by push_back
'

mode="${1:-}"
if [[ -n "${mode}" && "${mode}" != "--check" ]]; then
  echo "usage: scripts/config_census.sh [--check]" >&2
  exit 2
fi

# Every Struct::field declared in src/ headers. A line is a field when
# the part before its initializer has no parenthesis (methods do).
fields=$(find src -name '*.h' -print0 | sort -z | xargs -0 awk '
  /^(struct|class) [A-Za-z]*(Config|Policy|Spec) \{/ { s = $2; next }
  s != "" && /^\};/ { s = ""; next }
  s != "" && /^  [A-Za-z]/ && /;/ {
    line = $0; sub(/[ ]*(=|\{).*/, "", line); sub(/;.*/, "", line)
    if (line ~ /\(/) next
    n = split(line, w, " "); print s "::" w[n]
  }' | sort -u)

# One grep pass over everything outside tests/: each assigned dotted
# chain `.a.b.c =` credits a, b and c once per line.
name='[A-Za-z_][A-Za-z_0-9]*'
assign='[[:space:]]*(=([^=]|$)|\+=|-=)'
hits=$(grep -rnoE --include='*.cpp' --include='*.h' --exclude-dir=build \
         "\.${name}(\.${name})*${assign}" src bench examples |
       awk -F: '{
         where = $1 ":" $2
         chain = substr($0, length(where) + 2)
         sub(/[[:space:]]*(=|\+=|-=).*/, "", chain)
         n = split(substr(chain, 2), parts, ".")
         for (i = 1; i <= n; ++i) {
           if (!seen[where SUBSEP parts[i]]++) count[parts[i]]++
         }
       }
       END { for (f in count) print f, count[f] }')

table=$(awk 'NR == FNR { count[$1] = $2; next }
             { f = $0; sub(/.*::/, "", f)
               printf "%4d  %s\n", count[f] + 0, $0 }' \
           <(echo "${hits}") - <<< "${fields}" | sort -n -k1,1 -k2,2)

if [[ -z "${mode}" ]]; then
  echo "${table}"
  exit 0
fi

zero=$(awk '$1 == 0 { print $2 }' <<< "${table}")
allowed=$(awk 'NF { print $1 }' <<< "${ALLOWLIST}" | sort)
status=0
for sf in $(comm -23 <(sort <<< "${zero}") <(echo "${allowed}")); do
  echo "config census: ${sf} has no setter outside tests/;" \
       "fold it into a constant or allowlist it with a reason" >&2
  status=1
done
for sf in $(comm -13 <(sort <<< "${zero}") <(echo "${allowed}")); do
  echo "config census: allowlisted ${sf} is gone or now set outside" \
       "tests/; drop it from the allowlist" >&2
  status=1
done
if [[ "${status}" -eq 0 ]]; then
  echo "config census: $(wc -l <<< "${fields}") fields," \
       "$(wc -l <<< "${zero}") unset outside tests/, all allowlisted"
fi
exit "${status}"
