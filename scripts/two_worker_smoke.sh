#!/usr/bin/env bash
# Two-process fault-tolerance smoke test.
#
# Phase 1 (kill takeover): starts two cmmserve workers on one shared
# -store directory, submits a comparison job, SIGKILLs whichever worker
# is executing it mid-run, and requires the survivor to reap the dead
# worker's lease and finish the job. The shared content-addressed run
# store makes the takeover cheap: every simulation the dead worker
# completed is served from cache during the re-run.
#
# Phase 2 (cross-node cancel): restarts the killed worker, submits a
# second job, and DELETEs it through the worker that does NOT hold the
# lease. The durable cancel flag must reach the leaseholder via its
# heartbeat and drive the job to the terminal canceled state. Then one
# uncached lookup posted without ?wait to each worker in turn must name
# the same lookup-<hash> job in both 202s, and a waiting lookup on the
# second worker must return the computed result.
#
# Phase 3 (model hot reload): trains and promotes a CMM-L model into the
# registry both workers watch; both must hot-swap to it and serve a
# CMM-L job. A corrupt promotion (torn envelope + flipped pointer) must
# be rejected — old model keeps serving, reload-error counters bump —
# and a clean second promotion must swap both workers again.
#
# Phase 4 (lone server, no -store): a single cmmserve keeps its run
# store and jobs in a temporary directory under $TMPDIR, runs a small
# comparison job to done, answers a resubmission of that job from its
# stored result without executing it, and after SIGTERM must leave
# nothing behind.
# A second lone server started on the same, already-bound port must
# exit non-zero and leave nothing behind either.
#
# Usage: scripts/two_worker_smoke.sh
# Exits 0 on success; prints a FAIL line and exits 1 otherwise.
set -euo pipefail

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
STORE="$WORK/store"
MODELS="$WORK/models"
BIN="$WORK/cmmserve"
TRAINBIN="$WORK/cmmtrain"
PORT_A=18290
PORT_B=18291
A_URL="http://127.0.0.1:$PORT_A"
B_URL="http://127.0.0.1:$PORT_B"

A_PID=""
B_PID=""
cleanup() {
    [ -n "$A_PID" ] && kill -9 "$A_PID" 2>/dev/null || true
    [ -n "$B_PID" ] && kill -9 "$B_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    echo "--- worker A log ---" >&2; cat "$WORK/a.log" >&2 || true
    echo "--- worker B log ---" >&2; cat "$WORK/b.log" >&2 || true
    exit 1
}

# jsonfield FILE KEY -> first scalar value of "KEY" in pretty JSON.
jsonfield() {
    grep -o "\"$2\": *\"[^\"]*\"" "$1" | head -1 | sed 's/.*: *"//; s/"$//'
}

echo "building cmmserve and cmmtrain"
go build -o "$BIN" ./cmd/cmmserve
go build -o "$TRAINBIN" ./cmd/cmmtrain

echo "starting workers a and b on shared store $STORE"
"$BIN" -listen "127.0.0.1:$PORT_A" -store "$STORE" -worker-id smoke-a \
    -model-dir "$MODELS" -model-poll 300ms \
    -lease-ttl 2s -scan 300ms >"$WORK/a.log" 2>&1 &
A_PID=$!
"$BIN" -listen "127.0.0.1:$PORT_B" -store "$STORE" -worker-id smoke-b \
    -model-dir "$MODELS" -model-poll 300ms \
    -lease-ttl 2s -scan 300ms >"$WORK/b.log" 2>&1 &
B_PID=$!

for i in $(seq 1 50); do
    ok_a=$(curl -sf "$A_URL/healthz" 2>/dev/null || true)
    ok_b=$(curl -sf "$B_URL/healthz" 2>/dev/null || true)
    [ "$ok_a" = ok ] && [ "$ok_b" = ok ] && break
    [ "$i" = 50 ] && fail "workers did not become healthy"
    sleep 0.2
done

echo "submitting job to worker a"
curl -s "$A_URL/v1/jobs" \
    -d '{"kind":"comparison","preset":"quick","seeds":[1],"mixes_per_category":2}' \
    >"$WORK/submit.json"
JOB=$(jsonfield "$WORK/submit.json" id)
[ -n "$JOB" ] || fail "no job id in $(cat "$WORK/submit.json")"
echo "job $JOB accepted"

# Wait until one worker is executing it and has made real progress, so
# the kill lands mid-job, then identify the runner by the status' worker
# field.
RUNNER=""
for i in $(seq 1 100); do
    curl -s "$A_URL/v1/jobs/$JOB" >"$WORK/status.json" || true
    state=$(jsonfield "$WORK/status.json" state)
    done_runs=$(grep -o '"done": *[0-9]*' "$WORK/status.json" | head -1 | grep -o '[0-9]*' || echo 0)
    if [ "$state" = running ] && [ "${done_runs:-0}" -ge 3 ]; then
        RUNNER=$(jsonfield "$WORK/status.json" worker)
        break
    fi
    [ "$state" = done ] && fail "job finished before the kill window (too fast for this host)"
    sleep 0.3
done
[ -n "$RUNNER" ] || fail "job never reached running with progress: $(cat "$WORK/status.json")"

if [ "$RUNNER" = smoke-a ]; then
    VICTIM_PID=$A_PID; VICTIM=a; SURVIVOR_URL=$B_URL; A_PID=""
else
    VICTIM_PID=$B_PID; VICTIM=b; SURVIVOR_URL=$A_URL; B_PID=""
fi
echo "job running on worker $VICTIM ($done_runs runs done); SIGKILL pid $VICTIM_PID"
kill -9 "$VICTIM_PID"

echo "waiting for the survivor to reap the lease and finish the job"
TAKEOVER=""
for i in $(seq 1 400); do
    curl -s "$SURVIVOR_URL/v1/jobs/$JOB" >"$WORK/status.json" || true
    state=$(jsonfield "$WORK/status.json" state)
    if [ "$state" = done ]; then
        attempt=$(grep -o '"attempt": *[0-9]*' "$WORK/status.json" | head -1 | grep -o '[0-9]*' || echo "")
        worker=$(jsonfield "$WORK/status.json" worker)
        echo "job done on worker $worker (attempt ${attempt:-?})"
        curl -sf "$SURVIVOR_URL/v1/jobs/$JOB/result" >"$WORK/result.json" \
            || fail "survivor served no result"
        grep -q '"results"' "$WORK/result.json" || fail "result payload looks wrong"
        echo "PASS (phase 1): killed worker $VICTIM mid-job; survivor finished it and serves the result"
        TAKEOVER=yes
        break
    fi
    [ "$state" = failed ] && fail "job quarantined instead of finishing: $(cat "$WORK/status.json")"
    sleep 0.5
done
[ -n "$TAKEOVER" ] || fail "survivor never finished the job: $(cat "$WORK/status.json")"

# ---- Phase 2: cross-node cancel -------------------------------------

echo "restarting worker $VICTIM for the cross-node cancel phase"
if [ "$VICTIM" = a ]; then
    "$BIN" -listen "127.0.0.1:$PORT_A" -store "$STORE" -worker-id smoke-a \
        -model-dir "$MODELS" -model-poll 300ms \
        -lease-ttl 2s -scan 300ms >>"$WORK/a.log" 2>&1 &
    A_PID=$!
else
    "$BIN" -listen "127.0.0.1:$PORT_B" -store "$STORE" -worker-id smoke-b \
        -model-dir "$MODELS" -model-poll 300ms \
        -lease-ttl 2s -scan 300ms >>"$WORK/b.log" 2>&1 &
    B_PID=$!
fi
for i in $(seq 1 50); do
    ok_a=$(curl -sf "$A_URL/healthz" 2>/dev/null || true)
    ok_b=$(curl -sf "$B_URL/healthz" 2>/dev/null || true)
    [ "$ok_a" = ok ] && [ "$ok_b" = ok ] && break
    [ "$i" = 50 ] && fail "restarted worker did not become healthy"
    sleep 0.2
done

echo "submitting cancel-target job to worker a"
curl -s "$A_URL/v1/jobs" \
    -d '{"kind":"comparison","preset":"quick","seeds":[2,3],"mixes_per_category":4}' \
    >"$WORK/submit2.json"
JOB2=$(jsonfield "$WORK/submit2.json" id)
[ -n "$JOB2" ] || fail "no job id in $(cat "$WORK/submit2.json")"

RUNNER2=""
for i in $(seq 1 100); do
    curl -s "$A_URL/v1/jobs/$JOB2" >"$WORK/status2.json" || true
    state=$(jsonfield "$WORK/status2.json" state)
    if [ "$state" = running ]; then
        RUNNER2=$(jsonfield "$WORK/status2.json" worker)
        [ -n "$RUNNER2" ] && break
    fi
    [ "$state" = done ] && fail "cancel-target job finished before the DELETE (too fast for this host)"
    sleep 0.2
done
[ -n "$RUNNER2" ] || fail "cancel-target job never reached running: $(cat "$WORK/status2.json")"

# DELETE through the worker that does NOT hold the lease: only the
# durable cancel flag can reach the leaseholder.
if [ "$RUNNER2" = smoke-a ]; then PEER_URL=$B_URL; else PEER_URL=$A_URL; fi
echo "job $JOB2 running on $RUNNER2; DELETE via the peer"
curl -s -X DELETE "$PEER_URL/v1/jobs/$JOB2" >/dev/null || fail "peer DELETE failed"

echo "waiting for the leaseholder to observe the cancel flag"
CANCELED=""
for i in $(seq 1 60); do
    curl -s "$PEER_URL/v1/jobs/$JOB2" >"$WORK/status2.json" || true
    state=$(jsonfield "$WORK/status2.json" state)
    if [ "$state" = canceled ]; then
        grep -q 'cancelled by client' "$WORK/status2.json" \
            || fail "canceled without the client's reason: $(cat "$WORK/status2.json")"
        echo "PASS (phase 2): peer DELETE drove the remote job to terminal canceled"
        CANCELED=yes
        break
    fi
    [ "$state" = done ] && fail "job completed despite the cross-node cancel"
    sleep 0.3
done
[ -n "$CANCELED" ] || fail "cross-node cancel never became terminal: $(cat "$WORK/status2.json")"

# Compute-on-miss is deduplicated across workers by the job record
# lookup-<hash>, not by either process's memory.
LOOKUP='{"kind":"comparison","preset":"quick","seeds":[4],"mixes_per_category":1,"policies":["PT"]}'
code=$(curl -s -o "$WORK/lookup_a.json" -w '%{http_code}' "$A_URL/v1/results/lookup" -d "$LOOKUP")
[ "$code" = 202 ] || fail "uncached lookup on worker a: status $code: $(cat "$WORK/lookup_a.json")"
code=$(curl -s -o "$WORK/lookup_b.json" -w '%{http_code}' "$B_URL/v1/results/lookup" -d "$LOOKUP")
[ "$code" = 202 ] || fail "uncached lookup on worker b: status $code: $(cat "$WORK/lookup_b.json")"
LK_A=$(jsonfield "$WORK/lookup_a.json" id)
LK_B=$(jsonfield "$WORK/lookup_b.json" id)
LK_HASH=$(jsonfield "$WORK/lookup_a.json" result_hash)
[ "$LK_A" = "lookup-$LK_HASH" ] || fail "lookup on worker a enqueued $LK_A, want lookup-$LK_HASH"
[ "$LK_B" = "$LK_A" ] || fail "lookups of one config on two workers name jobs $LK_A and $LK_B"
code=$(curl -s -o "$WORK/lookup_wait.json" -w '%{http_code}' "$B_URL/v1/results/lookup?wait=2m" -d "$LOOKUP")
[ "$code" = 200 ] || fail "waiting lookup on worker b: status $code: $(cat "$WORK/lookup_wait.json")"
grep -q '"results"' "$WORK/lookup_wait.json" || fail "lookup payload looks wrong"
echo "PASS (phase 2): lookups on both workers shared job $LK_A and the wait returned its result"

# ---- Phase 3: model hot reload ---------------------------------------

# wait_model_fp URL FP: poll /v1/model until the worker serves FP.
wait_model_fp() {
    for i in $(seq 1 50); do
        curl -s "$1/v1/model" >"$WORK/model.json" || true
        [ "$(jsonfield "$WORK/model.json" fingerprint)" = "$2" ] && return 0
        sleep 0.2
    done
    fail "worker at $1 never served model $2: $(cat "$WORK/model.json")"
}

echo "training and promoting model 1 into the registry both workers watch"
"$TRAINBIN" -quick -synth-seeds 1 -promote -registry "$MODELS" \
    -out "$WORK/model1.json" >"$WORK/train1.log" 2>&1 \
    || fail "model 1 train/promote failed: $(cat "$WORK/train1.log")"
FP1=$(cat "$MODELS/current")
[ -n "$FP1" ] || fail "registry has no current pointer after the promote"
echo "model 1 promoted ($FP1); waiting for both workers to hot-swap"
wait_model_fp "$A_URL" "$FP1"
wait_model_fp "$B_URL" "$FP1"

echo "submitting a CMM-L job against the promoted model"
curl -s "$A_URL/v1/jobs" \
    -d '{"kind":"comparison","preset":"quick","seeds":[4],"mixes_per_category":1,"policies":["CMM-a","CMM-L"]}' \
    >"$WORK/submit3.json"
JOB3=$(jsonfield "$WORK/submit3.json" id)
[ -n "$JOB3" ] || fail "no CMM-L job id in $(cat "$WORK/submit3.json")"
DONE3=""
for i in $(seq 1 200); do
    curl -s "$A_URL/v1/jobs/$JOB3" >"$WORK/status3.json" || true
    state=$(jsonfield "$WORK/status3.json" state)
    if [ "$state" = done ]; then DONE3=yes; break; fi
    { [ "$state" = failed ] || [ "$state" = canceled ]; } \
        && fail "CMM-L job ended $state: $(cat "$WORK/status3.json")"
    sleep 0.3
done
[ -n "$DONE3" ] || fail "CMM-L job never finished: $(cat "$WORK/status3.json")"
echo "CMM-L job $JOB3 done on the promoted model"

# Simulate a promotion torn mid-write: a half-written envelope whose
# rename landed, with the current pointer already flipped to it. Both
# workers must reject it, keep serving model 1, surface the error on
# /v1/model, and bump the reload-error counter.
echo "corrupting a promotion (garbage envelope, pointer flipped by hand)"
echo '{"schema":"cmm-learn-model","half' >"$MODELS/deadbeefdead.json"
echo deadbeefdead >"$MODELS/current"
for URL in "$A_URL" "$B_URL"; do
    ERRSEEN=""
    for i in $(seq 1 50); do
        curl -s "$URL/v1/model" >"$WORK/model.json" || true
        if grep -q '"last_error"' "$WORK/model.json"; then ERRSEEN=yes; break; fi
        sleep 0.2
    done
    [ -n "$ERRSEEN" ] || fail "worker at $URL never reported the corrupt reload: $(cat "$WORK/model.json")"
    [ "$(jsonfield "$WORK/model.json" fingerprint)" = "$FP1" ] \
        || fail "worker at $URL dropped model 1 on a corrupt promotion: $(cat "$WORK/model.json")"
    errs=$(curl -s "$URL/metrics" | grep -o 'cmm_model_reload_errors_total [0-9]*' | grep -o '[0-9]*$' || echo 0)
    [ "${errs:-0}" -ge 1 ] || fail "worker at $URL shows no reload errors in /metrics"
done
echo "corrupt promotion rejected on both workers; model 1 still serving"

# A different synthesis corpus (two seeds, not one) gives model 2 a
# fingerprint of its own.
echo "promoting a clean model 2 to heal the registry"
"$TRAINBIN" -quick -synth-seeds 2 -promote -registry "$MODELS" \
    -out "$WORK/model2.json" >"$WORK/train2.log" 2>&1 \
    || fail "model 2 train/promote failed: $(cat "$WORK/train2.log")"
FP2=$(cat "$MODELS/current")
{ [ -n "$FP2" ] && [ "$FP2" != "$FP1" ] && [ "$FP2" != deadbeefdead ]; } \
    || fail "model 2 promotion produced no new fingerprint ($FP2)"
wait_model_fp "$A_URL" "$FP2"
wait_model_fp "$B_URL" "$FP2"
echo "PASS (phase 3): corrupt promotion rejected; both workers hot-swapped to $FP2"

# ---- Phase 4: lone server without -store -----------------------------

echo "stopping workers a and b; starting a lone worker without -store"
kill -TERM "$A_PID" "$B_PID"
wait "$A_PID" "$B_PID" || true
A_PID=""; B_PID=""
mkdir -p "$WORK/tmp"
TMPDIR="$WORK/tmp" "$BIN" -listen "127.0.0.1:$PORT_A" -worker-id smoke-lone \
    -scan 300ms >"$WORK/a.log" 2>&1 &
A_PID=$!
for i in $(seq 1 50); do
    [ "$(curl -sf "$A_URL/healthz" 2>/dev/null || true)" = ok ] && break
    [ "$i" = 50 ] && fail "lone worker did not become healthy"
    sleep 0.2
done
[ -n "$(ls -A "$WORK/tmp")" ] || fail "lone worker created no temporary store directory under \$TMPDIR"

# A second lone worker on the port the first one holds must fail to
# start and still remove the temporary store directory it made.
mkdir -p "$WORK/tmp2"
if TMPDIR="$WORK/tmp2" "$BIN" -listen "127.0.0.1:$PORT_A" -worker-id smoke-busy \
    >"$WORK/busy.log" 2>&1; then
    fail "a worker started on the already-bound port $PORT_A"
fi
[ -z "$(ls -A "$WORK/tmp2")" ] \
    || fail "failed start left $(ls "$WORK/tmp2") under \$TMPDIR: $(cat "$WORK/busy.log")"
echo "a worker on the bound port exited non-zero and left \$TMPDIR empty"

curl -s "$A_URL/v1/jobs" \
    -d '{"kind":"comparison","preset":"quick","seeds":[5],"mixes_per_category":1,"policies":["PT"]}' \
    >"$WORK/submit4.json"
JOB4=$(jsonfield "$WORK/submit4.json" id)
[ -n "$JOB4" ] || fail "no job id in $(cat "$WORK/submit4.json")"
DONE4=""
for i in $(seq 1 200); do
    curl -s "$A_URL/v1/jobs/$JOB4" >"$WORK/status4.json" || true
    state=$(jsonfield "$WORK/status4.json" state)
    if [ "$state" = done ]; then DONE4=yes; break; fi
    { [ "$state" = failed ] || [ "$state" = canceled ]; } \
        && fail "lone-worker job ended $state: $(cat "$WORK/status4.json")"
    sleep 0.3
done
[ -n "$DONE4" ] || fail "lone-worker job never finished: $(cat "$WORK/status4.json")"
curl -sf "$A_URL/v1/jobs/$JOB4/result" | grep -q '"results"' || fail "lone worker served no result"

# The same configuration again is answered from the stored result: done
# without executing (its durable record keeps attempt 0), under the same
# result hash, and counted on /metrics.
curl -s "$A_URL/v1/jobs" \
    -d '{"kind":"comparison","preset":"quick","seeds":[5],"mixes_per_category":1,"policies":["PT"]}' \
    >"$WORK/submit5.json"
JOB5=$(jsonfield "$WORK/submit5.json" id)
[ -n "$JOB5" ] || fail "no job id in $(cat "$WORK/submit5.json")"
for i in $(seq 1 100); do
    curl -s "$A_URL/v1/jobs/$JOB5" >"$WORK/status5.json" || true
    [ "$(jsonfield "$WORK/status5.json" state)" = done ] && break
    [ "$i" = 100 ] && fail "resubmitted job never finished: $(cat "$WORK/status5.json")"
    sleep 0.1
done
[ "$(jsonfield "$WORK/status5.json" result_hash)" = "$(jsonfield "$WORK/status4.json" result_hash)" ] \
    || fail "resubmitted job has another result hash: $(cat "$WORK/status5.json")"
grep -q '"attempt":0,' "$WORK"/tmp/cmmserve-*/jobs/"$JOB5".job \
    || fail "resubmitted job executed: $(cat "$WORK"/tmp/cmmserve-*/jobs/"$JOB5".job)"
curl -s "$A_URL/metrics" | grep -qx 'cmm_jobs_answered_from_store_total 1' \
    || fail "metrics do not count one job answered from the store: $(curl -s "$A_URL/metrics" | grep answered)"
echo "resubmitted job $JOB5 was answered from the store without executing"

kill -TERM "$A_PID"
wait "$A_PID" || fail "lone worker exited non-zero after SIGTERM"
A_PID=""
[ -z "$(ls -A "$WORK/tmp")" ] || fail "lone worker left $(ls "$WORK/tmp") under \$TMPDIR after the drain"
echo "PASS (phase 4): lone worker ran job $JOB4 to done, answered $JOB5 from the store and removed its temporary store directory"
echo "PASS: all four phases"
