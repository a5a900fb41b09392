//! Per-session allocation accounting, compiled only with the
//! `alloc-stats` counting allocator.
//!
//! Two jobs: a build-vs-run breakdown printed for profiling (run with
//! `--nocapture`), and a hard per-session allocation budget so the
//! delay-line/arena work cannot silently regress. Run with:
//!
//! ```text
//! cargo test -p realvideo-core --features alloc-stats --release \
//!     --test alloc_probe -- --nocapture
//! ```
#![cfg(feature = "alloc-stats")]

use rv_rtsp::{
    ClientEvent, ClientSession, Decoder, ServerHandler, ServerSession, Status, TransportSpec,
};
use rv_server::{ReceiverReport, REPORT_PARAM};
use rv_sim::alloc_stats;
use rv_study::{build_session_world_gw, plan_campaign, run_job_with, StudyParams};
use rv_tracer::WorldScratch;

#[global_allocator]
static ALLOC: alloc_stats::CountingAlloc = alloc_stats::CountingAlloc;

fn allocs() -> u64 {
    alloc_stats::snapshot().0
}

/// The counting allocator is process-global, so probes that difference
/// its snapshots must not overlap with each other.
static PROBE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Allocation counts by site: the first in-workspace frame of each
/// sampled backtrace.
type Sites = std::collections::BTreeMap<String, u64>;

/// Runs `work` with every `every`-th allocation recording its backtrace
/// and tallies the samples into `sites` (the sampler keeps at most 4,096
/// at a time, so a census samples one session per call).
fn sample_sites(every: u64, sites: &mut Sites, work: impl FnOnce()) {
    alloc_stats::start_sampling(every);
    work();
    alloc_stats::start_sampling(0);
    for (_, bt) in alloc_stats::take_samples() {
        let site = bt
            .lines()
            .map(str::trim)
            .filter(|l| l.contains("rv_") || l.contains("realvideo"))
            .find(|l| !l.contains("alloc_stats") && !l.contains("CountingAlloc"))
            .unwrap_or("<no workspace frame>");
        // "3: rv_player::Player::on_packet": the frame number says how
        // deep the allocator's own frames ran, not where.
        let site = site.trim_start_matches(|c: char| c.is_ascii_digit() || c == ':');
        *sites.entry(site.trim().to_string()).or_insert(0) += 1;
    }
}

/// Prints the `top` sites by count, each divided by `per`.
fn print_sites(sites: &Sites, per: f64, top: usize) {
    let mut ranked: Vec<_> = sites.iter().collect();
    ranked.sort_by_key(|(_, n)| std::cmp::Reverse(**n));
    let samples: u64 = sites.values().sum();
    println!("sampled allocation sites ({samples} samples, counts / {per}):");
    for (site, n) in ranked.iter().take(top) {
        println!("  {:>7.1}  {site}", **n as f64 / per);
    }
}

/// The every-allocation census behind EXPERIMENTS.md's per-site tables:
/// each warm session of the scale-0.02 plan once more with every
/// allocation's backtrace kept, printed per session. Slow and
/// print-only, so ignored by default:
///
/// ```text
/// cargo test -p realvideo-core --features alloc-stats --release \
///     --test alloc_probe -- --ignored --nocapture alloc_census
/// ```
#[test]
#[ignore = "print-only census; see the doc comment for the command"]
fn alloc_census() {
    let _serial = PROBE_LOCK.lock().unwrap();
    let plan = plan_campaign(StudyParams {
        scale: 0.02,
        ..StudyParams::default()
    });
    let jobs = plan.collect_jobs();
    let jobs: Vec<_> = jobs.iter().filter(|j| j.available).collect();
    let mut scratch = WorldScratch::default();
    for job in &jobs {
        run_job_with(&plan, job, &mut scratch);
    }
    let mut sites = Sites::new();
    for job in &jobs {
        sample_sites(1, &mut sites, || {
            run_job_with(&plan, job, &mut scratch);
        });
    }
    print_sites(&sites, jobs.len() as f64, 60);
}

#[test]
fn alloc_breakdown_per_session() {
    let _serial = PROBE_LOCK.lock().unwrap();
    let params = StudyParams {
        scale: 0.02,
        ..StudyParams::default()
    };
    let plan = plan_campaign(params);
    let jobs: Vec<_> = plan
        .collect_jobs()
        .into_iter()
        .filter(|j| j.available)
        .collect();
    assert!(!jobs.is_empty(), "scale too small: no available jobs");

    // One scratch threaded through every session, exactly as each
    // executor worker does it: steady state is "warm scratch", not
    // "fresh world every time".
    let mut scratch = WorldScratch::default();

    // Warm-up: first session pays one-time lazy init (statics, tables)
    // and populates the scratch.
    run_job_with(&plan, &jobs[0], &mut scratch);

    let (mut build, mut run, mut record, mut total) = (0u64, 0u64, 0u64, 0u64);
    let mut by_transport = std::collections::BTreeMap::new();
    let hist_before = alloc_stats::size_histogram();
    for job in &jobs {
        let user = &plan.population.participants[job.user];
        let site = &plan.roster[job.server];
        let entry = &plan.playlist[job.playlist_slot];
        let before = allocs();
        let mut world = build_session_world_gw(
            user,
            site,
            &entry.clip,
            plan.params.watch_limit,
            job.session_seed,
            &job.fault_plan,
            None,
            &mut scratch,
        );
        let built = allocs();
        let metrics = world.run(plan.params.session_deadline);
        let ran = allocs();
        let slot = by_transport
            .entry(format!("{:?}", metrics.protocol))
            .or_insert((0u64, 0u64));
        slot.0 += ran - before;
        slot.1 += 1;
        world.retire(&mut scratch);
        run_job_with(&plan, job, &mut scratch);
        let after = allocs();
        build += built - before;
        run += ran - built;
        record += after - ran;
        total += after - before;
    }
    let hist_after = alloc_stats::size_histogram();
    let n = jobs.len() as f64;
    let per_session = (build + run) as f64 / n;
    println!("sessions: {}", jobs.len());
    println!("size-class histogram (allocs/session, bucket = size <= 2^i):");
    for (i, (after, before)) in hist_after.iter().zip(hist_before.iter()).enumerate() {
        let delta = (after - before) as f64 / n;
        if delta >= 0.5 {
            println!("  <= {:>8} B: {:>8.1}", 1u64 << i, delta);
        }
    }
    println!(
        "  build_session_world: {:.1} allocs/session",
        build as f64 / n
    );
    println!(
        "  world.run:           {:.1} allocs/session",
        run as f64 / n
    );
    println!(
        "  full run_job redo:   {:.1} allocs/session",
        record as f64 / n
    );
    println!(
        "  grand total:         {:.1} allocs/session",
        total as f64 / n
    );
    println!("allocs/session (steady state): {per_session:.1}");
    for (transport, (count, n)) in &by_transport {
        println!(
            "  {transport}: {:.1} allocs/session over {n} sessions",
            *count as f64 / *n as f64
        );
    }

    // Backtrace-sampled attribution — the profiler of last resort for
    // "what is still allocating"; printed, not asserted.
    let mut sites = Sites::new();
    sample_sites(97, &mut sites, || {
        for job in jobs.iter().take(8) {
            run_job_with(&plan, job, &mut scratch);
        }
    });
    print_sites(&sites, 1.0, 20);

    // Measured steady state is 130.3 allocs/session (UDP 130.7, TCP
    // 129.7): the player's per-frame buffers (~34), world build (~21),
    // what a server and a client allocate once a session (catalog, clip,
    // description, URL, session id, metrics), and the TCP stack's queues.
    // The control channel's reports and the socket ropes' backings are no
    // longer among them (387 before PR 23). The budget sits close enough
    // above it that any allocation creep on the session hot path trips
    // this probe rather than hiding under an old slack bound.
    assert!(
        per_session < 150.0,
        "allocation budget blown: {per_session:.1} allocs/session (budget 150)"
    );
}

/// The control channel's steady state, under the counting allocator: a
/// warm client and server session, the two decoders between them and
/// the two staging buffers the endpoints reuse, driven through 1,000
/// receiver-report round trips exactly as `TracerClient::poll` and
/// `RealServer::pump_control` drive them — write in place, feed, read in
/// place, reply in place, feed, read in place. Not one allocation.
#[test]
fn receiver_reports_allocate_nothing() {
    let _serial = PROBE_LOCK.lock().unwrap();

    /// Keeps the last report it was handed, parsed, as the server does.
    struct Sink(Option<ReceiverReport>);
    impl ServerHandler for Sink {
        fn describe(&mut self, _url: &str) -> Option<Vec<u8>> {
            Some(b"c=news\n".to_vec())
        }
        fn setup(&mut self, _url: &str, asked: TransportSpec) -> Result<TransportSpec, Status> {
            Ok(asked)
        }
        fn play(&mut self, _url: &str) {}
        fn set_parameter(&mut self, _url: &str, name: &str, value: &str) {
            assert!(name.eq_ignore_ascii_case(REPORT_PARAM));
            self.0 = ReceiverReport::parse(value);
        }
        fn teardown(&mut self, _url: &str) {}
    }

    let mut client = ClientSession::new("rtsp://srv.example/us_cnn-clip08.rm");
    let (mut server, mut sink) = (ServerSession::new(), Sink(None));
    let (mut to_server, mut to_client) = (Decoder::new(), Decoder::new());
    let (mut encode_buf, mut ctrl_buf) = (Vec::new(), Vec::new());

    // One request to the server and its reply back; whether the client
    // read the reply as a report's.
    let mut round_trip = |client: &mut ClientSession, sink: &mut Sink, encode_buf: &mut Vec<u8>| {
        to_server.feed(encode_buf);
        encode_buf.clear();
        let request = to_server.next_message().unwrap().unwrap();
        ctrl_buf.clear();
        server.on_request(sink, &request, &mut ctrl_buf);
        to_client.feed(&ctrl_buf);
        let reply = to_client.next_message().unwrap().unwrap();
        client.on_response(&reply) == ClientEvent::ReportAcked
    };

    // The handshake warms every buffer (and may allocate).
    client.describe(Some(384_000), &mut encode_buf).unwrap();
    round_trip(&mut client, &mut sink, &mut encode_buf);
    client
        .setup(TransportSpec::udp(5002), &mut encode_buf)
        .unwrap();
    round_trip(&mut client, &mut sink, &mut encode_buf);
    client.play(&mut encode_buf).unwrap();
    round_trip(&mut client, &mut sink, &mut encode_buf);

    // The counter is process-wide, and the test harness's own thread
    // allocates whenever a neighbouring test starts or ends. Anything
    // *this* path allocated would show in every window of 1,000 trips,
    // so one clean window in a few proves the claim; a stray harness
    // allocation dirties at most the window it lands in.
    let mut window = |cseq_base: u32| {
        let before = allocs();
        for i in cseq_base..cseq_base + 1_000 {
            // Values across the widths a session sees: 4- to 7-digit rates.
            let report = ReceiverReport {
                loss_rate: f64::from(i % 100) / 1_000.0,
                recv_rate_bps: 1_234.5 * f64::from(i + 1),
            };
            client
                .set_parameter(REPORT_PARAM, report, &mut encode_buf)
                .unwrap();
            assert!(round_trip(&mut client, &mut sink, &mut encode_buf));
            let got = sink.0.take().expect("the report reached the handler");
            assert!((got.recv_rate_bps - report.recv_rate_bps).abs() < 0.06);
        }
        allocs() - before
    };
    let spent: Vec<u64> = (0..5).map(|w| window(w * 1_000)).collect();
    assert!(
        spent.contains(&0),
        "1,000 report round trips allocated in every window: {spent:?}"
    );
}

#[test]
fn disarmed_flight_recorder_allocates_nothing() {
    let _serial = PROBE_LOCK.lock().unwrap();
    // The observability contract's zero-overhead clause, measured: with
    // the recorder disarmed, a session allocates *exactly* what it
    // allocated before the recorder existed — the emit sites are one
    // thread-local load and a branch, never a closure evaluation. The
    // probe replays the same job warm (identical allocation profile run
    // to run), arms the recorder once in between to prove arming is
    // observable, and checks the disarmed counts bracket it unchanged.
    let params = StudyParams {
        scale: 0.02,
        faults: rv_sim::FaultScenario::default_on(),
        ..StudyParams::default()
    };
    let plan = plan_campaign(params);
    let jobs: Vec<_> = plan
        .collect_jobs()
        .into_iter()
        .filter(|j| j.available)
        .collect();
    let job = jobs
        .iter()
        .find(|j| !j.fault_plan.is_empty())
        .unwrap_or(&jobs[0]);

    let mut scratch = WorldScratch::default();

    let measure = |scratch: &mut WorldScratch| {
        let before = allocs();
        run_job_with(&plan, job, scratch);
        allocs() - before
    };

    // Warm until the replay is allocation-stable: the early runs pay
    // lazy init and scratch pool growth (the count drifts down for ~20
    // runs as the pools fill, with a ±1 wobble near the end), then it
    // fixes. Demand several consecutive identical measures so a
    // mid-drift plateau cannot fake stability.
    let stable = |scratch: &mut WorldScratch| -> Option<u64> {
        let mut value = measure(scratch);
        let mut streak = 0;
        for _ in 0..64 {
            let next = measure(scratch);
            if next == value {
                streak += 1;
                if streak >= 5 {
                    return Some(value);
                }
            } else {
                streak = 0;
                value = next;
            }
        }
        None
    };
    let disarmed_a = stable(&mut scratch).expect(
        "warm replay never became allocation-stable; the zero-overhead probe is meaningless",
    );

    // Armed, the same session records thousands of events — the recorder
    // itself plainly allocates (so equality below is not vacuous).
    rv_sim::trace::start();
    let armed = measure(&mut scratch);
    let records = rv_sim::trace::finish();
    assert!(!records.is_empty(), "armed recorder captured nothing");
    assert!(
        armed > disarmed_a,
        "armed run ({armed}) did not allocate more than disarmed ({disarmed_a})"
    );

    let disarmed_after =
        stable(&mut scratch).expect("disarmed replay did not restabilize after an armed run");
    assert_eq!(
        disarmed_a, disarmed_after,
        "tracing-off path allocation count changed after an armed run"
    );
}
