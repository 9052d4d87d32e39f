#!/usr/bin/env bash
# The canonical check for this repository: formatting, vet, build, and the
# full test suite under the race detector (the job service multiplexes
# concurrent jobs onto one shared cluster — exactly where -race earns its
# keep). CI and pre-push hooks should run this script and nothing else.
#
# Flags:
#   -soak   additionally run the batched-dispatch fault soak (build tag
#           "soak": 200 randomized kill/partition/leave runs, ~1 min).
#   -sim    additionally replay the scenario regression suite at extra
#           fixed seeds (the default seeds already run under go test).
set -euo pipefail
cd "$(dirname "$0")/.."

soak=0
sim=0
for arg in "$@"; do
    case "$arg" in
    -soak) soak=1 ;;
    -sim) sim=1 ;;
    *)
        echo "usage: scripts/ci.sh [-soak] [-sim]" >&2
        exit 2
        ;;
    esac
done

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Scheduling tests are event-driven: FakeClock advances plus notifier
# hooks (onWait/onTick/OnDeath/noteProgress), never wall-clock polling.
# A time.Sleep in these test files reintroduces the flaky, slow waits
# this repo spent several PRs removing — and the sim package promises
# virtual-time determinism outright. Fail fast on any new one.
sleeps=$(grep -rn 'time\.Sleep' \
    internal/sched internal/cluster internal/fleet internal/sim \
    --include='*_test.go' 2>/dev/null || true)
if [ -n "$sleeps" ]; then
    echo "time.Sleep in scheduling test files (use FakeClock advances and event hooks instead):" >&2
    echo "$sleeps" >&2
    exit 1
fi

go vet ./...
# Project-specific invariants go vet cannot see (cancellable channel ops,
# timer hygiene, locks across blocking ops, gob registration, detached
# contexts, the declared lock hierarchy and no-blocking-under-lock
# discipline checked through the call graph, comm.Kind switch
# exhaustiveness, sync/atomic consistency) — see docs/ANALYSIS.md and
# lint/lockorder.conf. Any finding fails the build; deliberate exceptions
# must carry an audited //lint:ignore directive with a reason.
go run ./cmd/easyhps-vet ./...
go build ./...
go test -race ./...
# The single-job elastic tests (kill/partition/join/restart over real
# sockets), the straggler-mitigation suite (fake-clock timeout arbitration,
# duplicate-result idempotence, speculative rescue and backlog stealing)
# and the shared-fleet multi-job suite (concurrent DAGs with a mid-run
# worker kill, fake-clock poisoned-job isolation, stealing/speculation
# scoped per job, and the end-to-end fleet-mode job service) are the most
# schedule-sensitive code in the repo; run them a second time under -race
# with caching off so a lucky first pass cannot hide a flaky membership,
# lease, or attempt-arbitration race.
go test -race -count=1 -run 'TestElastic|TestMasterRestart|TestPartitioned|TestClusterOvertimeFakeClock|TestDuplicateResultIdempotent|TestSpeculationRescues|TestStealRebalances' ./internal/fleet/
go test -race -count=1 -run 'TestFleetConcurrentJobsWorkerKill|TestFleetPoisonedJobIsolationFakeClock|TestFleetSpeculationFakeClock|TestFleetStealFeedsHungryMember|TestFleetCheckpointResume|TestFleetAutoTunesOverTCP' ./internal/fleet/
go test -race -count=1 -run 'TestFleetService' ./internal/server/

# Coverage ratchet for the task hot path (dispatch, wire codec, runtime).
# The minimums sit just under the measured numbers at the time each was
# set; raise them when coverage improves, never lower them.
check_cover() {
    pkg=$1 min=$2
    pct=$(go test -short -cover "./$pkg/" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "coverage: could not measure $pkg" >&2
        exit 1
    fi
    if ! awk -v p="$pct" -v m="$min" 'BEGIN { exit !(p >= m) }'; then
        echo "coverage: $pkg at ${pct}% — below the ${min}% ratchet" >&2
        exit 1
    fi
    echo "coverage: $pkg ${pct}% (>= ${min}%)"
}
check_cover internal/sched 92
check_cover internal/comm 82
check_cover internal/core 86
check_cover internal/cluster 75
check_cover internal/fleet 80
check_cover internal/cas 80
check_cover internal/sim 80
check_cover internal/tune 80
# The analyzer itself: the fixture suites for every rule keep the
# short-mode number here; the repo-wide gates only run un-short.
check_cover internal/lint 76

# Smoke the wire-codec fuzzer: ten seconds of random frames must neither
# crash the decoder nor break the encode/decode round trip.
go test -run '^$' -fuzz '^FuzzWireCodec$' -fuzztime 10s ./internal/comm/

if [ "$soak" = 1 ]; then
    go test -race -count=1 -tags soak -run TestSoakBatchedFaults -timeout 600s ./internal/fleet/
fi

if [ "$sim" = 1 ]; then
    # Replay every scenario at extra fixed seeds: determinism-per-seed
    # and bit-identical DP results must hold at any seed, not just the
    # tuned one. This includes the self-tuning (auto) scenarios — the
    # controller's decisions are pure functions of the schedule, so they
    # must replay deterministically too. The timeout is the stage's
    # wall-time budget — virtual time makes even the 1000-worker
    # scenarios run in seconds.
    EASYHPS_SIM_SEEDS="1009,2003" \
        go test -race -count=1 -run TestScenariosReseeded -timeout 120s ./internal/sim/
fi
