//! The executable spec for "the tracer measures the same program": the
//! mirrored settle loop reproduces `SessionWorld::run` session by session,
//! and the traced pass folds the campaign `run_campaign` folds.

use realvideo_core::all_figures;
use rv_sim::{FaultScenario, SimDuration};
use rv_study::{plan_campaign, run_campaign, GatewayPolicy, StudyParams};
use rvbench::mirror::{Call, Ledger};
use rvbench::rep::Totals;
use rvbench::trace::{mirror_mismatch, traced_pass};
use rvbench::workload::WORKLOADS;

const SEED: u64 = 536_937_988;

fn assert_mirror_matches(params: StudyParams, label: &str) {
    let plan = plan_campaign(params);
    let mut ledger = Ledger::default();
    let compared = mirror_mismatch(&plan, usize::MAX, &mut ledger)
        .unwrap_or_else(|key| panic!("{label}: mirror and run differ on session {key:?}"));
    assert!(compared > 50, "{label}: only {compared} sessions compared");
    assert_eq!(ledger.sessions, compared as u64);
    // The ledger saw the loop it mirrored: more rounds than instants, a
    // net poll every round, one in sixteen instants timed.
    assert!(ledger.rounds > ledger.instants);
    assert_eq!(ledger.call(Call::Net).calls, ledger.rounds);
    let timed = ledger.whole_instants + ledger.detailed_instants;
    assert!(
        timed.abs_diff(ledger.instants / 16) <= 1,
        "{timed} of {}",
        ledger.instants
    );
    let replica_calls = ledger.call(Call::ReplicaApp).calls;
    assert_eq!(
        replica_calls > 0,
        params.replicas > 1,
        "{label}: replica arm"
    );
}

#[test]
fn mirror_reproduces_run_on_the_classic_world() {
    assert_mirror_matches(
        StudyParams {
            seed: SEED,
            scale: 0.05,
            ..StudyParams::default()
        },
        "classic",
    );
}

#[test]
fn mirror_reproduces_run_with_a_replica_cluster() {
    assert_mirror_matches(
        StudyParams {
            seed: SEED,
            scale: 0.05,
            replicas: 2,
            gateway: GatewayPolicy::NearestHealthy,
            ..StudyParams::default()
        },
        "replicas 2",
    );
}

#[test]
fn mirror_reproduces_run_on_the_fault_free_sessions_of_a_faulted_campaign() {
    assert_mirror_matches(
        StudyParams {
            seed: SEED,
            scale: 0.05,
            replicas: 2,
            gateway: GatewayPolicy::NearestHealthy,
            faults: FaultScenario::default_on(),
            ..StudyParams::default()
        },
        "faulted gateway",
    );
}

/// `startup_churn`'s shape: a population replicated at scale > 1 (user ids
/// strided by 1,000,000), two seconds of each clip.
#[test]
fn mirror_reproduces_run_on_a_replicated_population() {
    let params = StudyParams {
        seed: SEED,
        scale: 1.05,
        watch_limit: SimDuration::from_secs(2),
        ..StudyParams::default()
    };
    let plan = plan_campaign(params);
    assert!(plan.num_users() > 100, "{} users", plan.num_users());
    assert_mirror_matches(params, "replicated population");
}

#[test]
fn traced_pass_folds_the_campaign_run_campaign_folds() {
    for workload in &WORKLOADS {
        let report = traced_pass(workload, SEED, 0.1, None);
        let mut totals = Totals::default();
        let campaigns = workload.campaigns(SEED, 0.1);
        assert_eq!(report.aggregates.len(), campaigns.len());
        for (params, traced) in campaigns.iter().zip(&report.aggregates) {
            let data = run_campaign(*params).expect("campaign runs");
            assert_eq!(
                *traced, data.aggregates,
                "{} seed {}",
                workload.name, params.seed
            );
            totals.add(&data, &all_figures(&data));
        }
        assert_eq!(
            report.digest,
            totals.digest(),
            "{}: sim digest",
            workload.name
        );
        assert_eq!(report.planned, totals.planned);
        assert!(
            report.failed_checks.is_empty(),
            "{:?}",
            report.failed_checks
        );
        let metric = |name: &str| {
            report
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .1
        };
        assert_eq!(metric("tracer.mirror_ok"), 1.0, "{}", workload.name);
        let coverage = metric("tracer.mirror_coverage");
        if workload.is_faulted() {
            assert!((0.5..1.0).contains(&coverage), "{coverage}");
            assert!(metric("tracer.replica_arm_share") > 0.0);
        } else {
            assert_eq!(coverage, 1.0, "{}", workload.name);
            assert_eq!(metric("tracer.replica_arm_share"), 0.0);
        }
        let shares = [
            "tracer.driver_self_share",
            "tracer.replica_arm_share",
            "tracer.client_poll_share",
            "server.poll_share",
            "net.poll_share",
            "transport.poll_share",
        ];
        let total: f64 = shares.iter().map(|s| metric(s)).sum();
        assert!(
            (total - 1.0).abs() < 1e-6 || metric("tracer.driver_self_share") == 0.0,
            "{total}"
        );
    }
}
