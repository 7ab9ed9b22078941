#!/usr/bin/env bash
# check_docs.sh — docs-consistency gate: fail when README.md,
# ARCHITECTURE.md or EVALUATION.md reference a package directory that no
# longer exists or a backticked Go identifier that nothing declares, when
# EVALUATION.md names an experiments entry point that is not a defined
# function, or when the README flag reference and the
# cmd/ binaries disagree (a flag documented but not defined, or defined
# but not documented).
set -euo pipefail
cd "$(dirname "$0")/.."
fail=0

# 1. Every internal/..., cmd/..., examples/... path mentioned in the docs
#    must be a real directory.
for doc in README.md ARCHITECTURE.md EVALUATION.md; do
  for pkg in $(grep -oE '(internal|cmd|examples)/[a-z0-9_-]+' "$doc" | sort -u); do
    if [ ! -d "$pkg" ]; then
      echo "$doc references missing package directory: $pkg"
      fail=1
    fi
  done
done

# 1b. Every `experiments.X` entry point EVALUATION.md names must be a
#     defined function of internal/experiments (the evaluation map may
#     only point at real, runnable entry points).
for fn in $(grep -oE 'experiments\.[A-Za-z0-9_]+' EVALUATION.md | sed 's/experiments\.//' | sort -u); do
  if ! grep -qE "^func $fn\(" internal/experiments/*.go; then
    echo "EVALUATION.md names experiments.$fn but internal/experiments defines no such function"
    fail=1
  fi
done

# 1c. Conversely, every internal/* package directory must have its own
#     row in ARCHITECTURE.md's package table (a row whose first cell
#     starts with it).
for dir in internal/*/; do
  pkg=${dir%/}
  if ! grep -q "^| \`$pkg\`" ARCHITECTURE.md; then
    echo "ARCHITECTURE.md's package table has no row for $pkg"
    fail=1
  fi
done

# 1d. Every backticked Go identifier in README.md, ARCHITECTURE.md and
#     EVALUATION.md must be declared by some Go file of the tree (tests
#     included, the separate bench/ module excluded): a bare exported
#     `Name`, or the last component of a dotted `x.Name` / `Type.Method`,
#     exported or not (`engine.compiled`, `Program.checkRuns`), each with an
#     optional `(...)`. Names qualified by a standard-library package, file
#     names (`go.mod`, `BENCHMARK.json`) and metric prefixes (`engine.`)
#     are not checked. A declaration is an identifier that opens a
#     line after func/type/const/var or indentation (struct fields,
#     interface methods and const/var block entries, comma lists
#     included) — loose, but a deleted name appears in no such position.
declared=$(git ls-files -co --exclude-standard '*.go' ':!:bench/' |
  { xargs grep -shoE '^(func (\([^)]*\) )?|type |const |var |[[:space:]]+)[A-Za-z_][A-Za-z0-9_]*(, [A-Za-z_][A-Za-z0-9_]*)*([[:space:](,[]|$)' || true; } |
  sed -E 's/^(func (\([^)]*\) )?|type |const |var |[[:space:]]+)//; s/[[:space:](,[]$//' | tr -s ', ' '\n' | sort -u)
stdlib='atomic|binary|bits|bytes|context|errors|expvar|fmt|fnv|heap|io|json|maphash|math|os|pprof|rand|runtime|slices|sort|strconv|strings|sync|testing|time'
for doc in README.md ARCHITECTURE.md EVALUATION.md; do
  for id in $(grep -oE '`[A-Za-z_][A-Za-z0-9_.]*(\([^`]*\))?`' "$doc" | tr -d '`' | sed -E 's/\(.*\)$//' | sort -u); do
    name=${id##*.}
    [[ ($id == *.* && -n $name) || $name =~ ^[A-Z] ]] || continue
    [[ $id == *.* && ${id%%.*} =~ ^($stdlib)$ ]] && continue
    [[ $id == *.* && $name =~ ^(md|json|go|yml|sh|mod)$ ]] && continue
    if ! grep -qx "$name" <<<"$declared"; then
      echo "$doc names \`$id\` but no Go file in the tree declares $name"
      fail=1
    fi
  done
done

# 2. Every flag documented in README's reference tables (between the
#    flags:begin/end markers) must be defined by some cmd binary.
flags=$(awk '/<!-- flags:begin -->/,/<!-- flags:end -->/' README.md |
  sed -nE 's/^\| `-([a-z0-9-]+)`.*/\1/p' | sort -u)
if [ -z "$flags" ]; then
  echo "no flags found between flags:begin/end markers in README.md"
  fail=1
fi
for f in $flags; do
  if ! grep -qrE "flag\.[A-Za-z0-9]+\(\"$f\"" cmd/; then
    echo "README documents flag -$f but no cmd binary defines it"
    fail=1
  fi
done

# 3. Conversely, every flag a cmd binary defines must be documented.
# (grep reads a here-string, not a pipe: grep -q exiting early would
# SIGPIPE the producer and, under pipefail, randomly flag documented
# flags as missing.)
defined=$(grep -hroE 'flag\.[A-Za-z0-9]+\("[a-z0-9-]+"' cmd/ |
  sed -E 's/.*\("([a-z0-9-]+)"/\1/' | sort -u)
for f in $defined; do
  if ! grep -qx "$f" <<<"$flags"; then
    echo "cmd binary defines flag -$f but README does not document it"
    fail=1
  fi
done

# 4. The chaos surface must stay documented: ARCHITECTURE.md keeps its
#    re-send protocol / stash lifecycle section, README documents the
#    recycle-train -chaos mode, and the CI chaos-smoke job exists.
if ! grep -qE '^#+ .*[Rr]e-send protocol' ARCHITECTURE.md; then
  echo "ARCHITECTURE.md lost its re-send protocol section"
  fail=1
fi
if ! grep -q 'stash' ARCHITECTURE.md; then
  echo "ARCHITECTURE.md does not describe the stash lifecycle"
  fail=1
fi
if ! grep -q '\-chaos' README.md; then
  echo "README.md does not document the recycle-train -chaos mode"
  fail=1
fi
if ! grep -q 'chaos-smoke' .github/workflows/ci.yml; then
  echo "ci.yml lost the chaos-smoke job"
  fail=1
fi

# 4b. The observability surface must stay documented: ARCHITECTURE.md
#     keeps its Observability section describing internal/obs and the
#     flight recorder, and the CI trace-smoke job exists.
if ! grep -qE '^#+ .*[Oo]bservability' ARCHITECTURE.md; then
  echo "ARCHITECTURE.md lost its Observability section"
  fail=1
fi
if ! grep -q 'internal/obs' ARCHITECTURE.md; then
  echo "ARCHITECTURE.md does not describe internal/obs"
  fail=1
fi
if ! grep -q 'flight recorder' ARCHITECTURE.md; then
  echo "ARCHITECTURE.md does not describe the flight recorder"
  fail=1
fi
if ! grep -q 'trace-smoke' .github/workflows/ci.yml; then
  echo "ci.yml lost the trace-smoke job"
  fail=1
fi

# 5. The README must link the architecture and evaluation documents, and
#    ARCHITECTURE must link the evaluation map.
if ! grep -q 'ARCHITECTURE.md' README.md; then
  echo "README.md does not link ARCHITECTURE.md"
  fail=1
fi
if ! grep -q 'EVALUATION.md' README.md; then
  echo "README.md does not link EVALUATION.md"
  fail=1
fi
if ! grep -q 'EVALUATION.md' ARCHITECTURE.md; then
  echo "ARCHITECTURE.md does not link EVALUATION.md"
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "docs check OK: $(printf '%s\n' $flags | wc -l | tr -d ' ') flags documented, all package references, identifiers and experiment entry points resolve"
fi
exit $fail
