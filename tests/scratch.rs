//! The scratch contract: a [`WorldScratch`] carries capacity, never state.
//! Whatever sessions a worker's scratch has been through — none, the same
//! plan in another order, worlds with a different number of replicas — the
//! next session's record is the same, bit for bit. `fold`'s freedom to hand
//! any job to any worker rests on this.

use rv_sim::FaultScenario;
use rv_study::{
    plan_campaign, run_job_with, CampaignPlan, GatewayPolicy, SessionJob, SessionRecord,
    StudyParams,
};
use rv_tracer::WorldScratch;

/// `--faults --replicas 2 --gateway nearest` at a small scale.
fn cluster_plan(scale: f64) -> CampaignPlan {
    plan_campaign(StudyParams {
        scale,
        faults: FaultScenario::default_on(),
        replicas: 2,
        gateway: GatewayPolicy::NearestHealthy,
        ..StudyParams::default()
    })
}

fn cold(plan: &CampaignPlan, job: &SessionJob) -> SessionRecord {
    run_job_with(plan, job, &mut WorldScratch::default())
}

fn assert_same(a: &SessionRecord, b: &SessionRecord, what: &str) {
    let key = (a.user_id, &a.clip_name);
    assert_eq!(key, (b.user_id, &b.clip_name));
    assert_eq!(a.metrics, b.metrics, "{what}: metrics of {key:?}");
    assert_eq!(a.rating, b.rating, "{what}: rating of {key:?}");
    assert_eq!(a.counters, b.counters, "{what}: counters of {key:?}");
}

#[test]
fn warm_scratch_in_any_order_equals_cold_scratch() {
    let plan = cluster_plan(0.015);
    let jobs = plan.collect_jobs();
    assert!(jobs.iter().any(|j| !j.fault_plan.is_empty()));

    let each_cold: Vec<_> = jobs.iter().map(|j| cold(&plan, j)).collect();
    let served_by_replica = each_cold
        .iter()
        .filter(|r| r.metrics.served_replica == 1)
        .count();
    assert!(served_by_replica > 0, "no session reached replica 1");

    let mut scratch = WorldScratch::default();
    for (job, want) in jobs.iter().zip(&each_cold) {
        let got = run_job_with(&plan, job, &mut scratch);
        assert_same(&got, want, "plan order");
    }
    assert_eq!(scratch.servers.len(), 2, "one scratch slot per role");

    // A second pass over the same plan finds every rung's frame storage
    // already as large as its longest stream needs: it grows none.
    let frame_capacity = |scratch: &WorldScratch| -> Vec<usize> {
        let servers = scratch.servers.iter();
        servers.map(|s| s.frame_capacity()).collect()
    };
    // Nor do the server's payload pools — the staging pool and the send
    // buffers' pools and open tails: per size class each already owns as
    // many backings as its busiest session had in flight at once.
    let pool_owned = |scratch: &WorldScratch| -> Vec<(usize, usize)> {
        let pools = scratch.servers.iter().map(|s| s.payload_footprint());
        pools.map(|owned| (owned.backings, owned.bytes)).collect()
    };
    // Nor does the client's player, depacketizer and event log, nor any
    // socket's ropes, pools and queues, client's or server's.
    let player_and_sockets = |scratch: &WorldScratch| -> (usize, Vec<usize>) {
        let servers = scratch.servers.iter().map(|s| s.stack.retained_bytes());
        let sockets = std::iter::once(scratch.client.stack.retained_bytes()).chain(servers);
        (scratch.client.player_bytes(), sockets.collect())
    };
    let warm = frame_capacity(&scratch);
    let warm_pools = pool_owned(&scratch);
    let warm_storage = player_and_sockets(&scratch);
    // Server storage is filed by role: slot 0 holds what the server each
    // client tried first grew, which streamed in most sessions; slot 1,
    // the fallback's, only what failovers needed.
    assert!(
        warm[0] > 0 && warm_pools[0].0 > 0,
        "{warm:?} {warm_pools:?}"
    );
    assert!(
        warm[1] <= warm[0] && warm_pools[1].1 <= warm_pools[0].1,
        "{warm:?} {warm_pools:?}"
    );
    assert!(warm_storage.0 > 0 && warm_storage.1.iter().all(|bytes| *bytes > 0));
    for (job, want) in jobs.iter().zip(&each_cold) {
        let got = run_job_with(&plan, job, &mut scratch);
        assert_same(&got, want, "second pass");
    }
    assert_eq!(frame_capacity(&scratch), warm);
    assert_eq!(pool_owned(&scratch), warm_pools);
    assert_eq!(player_and_sockets(&scratch), warm_storage);

    let mut scratch = WorldScratch::default();
    for (job, want) in jobs.iter().zip(&each_cold).rev() {
        let got = run_job_with(&plan, job, &mut scratch);
        assert_same(&got, want, "reverse order");
    }
}

/// What a worker's server owns for payloads tracks what its sessions had
/// in flight, not how many payloads they wrote: after a classic campaign
/// the staging pool (UDP datagrams) and the send buffers' pools and open
/// tails (TCP media, RTSP replies) together own under 3.5× the largest
/// payload peak any one of them had out at once — a floor on what was in
/// flight at once (3.09× here: a TCP stream's packets share 16 KiB open
/// tails, so a stalled sender owns about what it queued). It read 4.1×
/// from the staging pool alone while every pacing pump took a backing of
/// its own, each class keeping its own busiest moment (and 29× when every
/// payload took a 16 KiB backing). Everything a worker keeps between
/// sessions — network, server slots, client — stays under 2 MiB: 1.59 MiB
/// here, 2.90 MiB with a backing per pump.
#[test]
fn payload_pool_owns_what_was_in_flight() {
    let plan = plan_campaign(StudyParams {
        scale: 0.125,
        ..StudyParams::default()
    });
    let mut scratch = WorldScratch::default();
    for job in &plan.collect_jobs() {
        run_job_with(&plan, job, &mut scratch);
    }
    let owned = scratch.servers[0].payload_footprint();
    assert!(owned.peak_out_bytes > 256 * 1024, "{owned:?}");
    assert!(2 * owned.bytes <= 7 * owned.peak_out_bytes, "{owned:?}");
    let kept = scratch.retained_bytes();
    assert!(
        kept <= 2 << 20,
        "a worker keeps {kept} bytes between sessions"
    );
}

/// `PrototypeCache`'s hit rate, and the scratch's replica slots under
/// worlds of alternating width: classic and 2-replica sessions interleaved
/// on one scratch build exactly one prototype per replica count (hit rate
/// = 1 − 2/sessions) and still match their cold records.
#[test]
fn mixed_replica_counts_share_one_scratch() {
    let classic = plan_campaign(StudyParams {
        scale: 0.005,
        ..StudyParams::default()
    });
    let cluster = cluster_plan(0.005);
    let mut scratch = WorldScratch::default();
    let mut sessions = 0;
    for (narrow, wide) in classic.collect_jobs().iter().zip(&cluster.collect_jobs()) {
        for (plan, job) in [(&cluster, wide), (&classic, narrow)] {
            let got = run_job_with(plan, job, &mut scratch);
            assert_same(&got, &cold(plan, job), "mixed widths");
            sessions += usize::from(job.available);
        }
    }
    assert!(sessions > 10, "only {sessions} sessions simulated");
    assert_eq!(scratch.topo.len(), 2);
    assert_eq!(scratch.servers.len(), 2);
}
