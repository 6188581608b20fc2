//! Golden timeline digests (DESIGN.md §11): every canonical scenario's
//! voxel-trace JSONL must hash to the digest committed under
//! `tests/golden/`. Any behavioral change to quic/abr/player surfaces
//! here as a reviewable digest diff instead of silent results drift.
//!
//! After an *intentional* behavior change, re-bless with
//! `VOXEL_BLESS=1 cargo test --test golden_digests` and commit the
//! updated `tests/golden/*.digest` files alongside the change.

use std::path::Path;
use voxel::testkit::{check_or_bless, run_golden, Content, GoldenStatus};

/// The profiler must be a pure observer (DESIGN.md §13): arming it at
/// sample=1 — every span taken, every alloc counted — must not perturb
/// a single byte of the simulated timeline.
#[test]
fn goldens_unchanged_with_profiler_armed() {
    let mut content = Content::new();
    for g in voxel::testkit::digest::canonical_scenarios() {
        let (baseline, failures) = run_golden(&g, &mut content).expect("scenario runs");
        assert!(
            failures.is_empty(),
            "golden {} baseline failed: {failures:?}",
            g.name
        );

        let profiler = voxel::obs::Profiler::with_sample(1);
        let (profiled, failures) = {
            let _armed = profiler.install();
            run_golden(&g, &mut content).expect("scenario runs under profiler")
        };
        assert!(
            failures.is_empty(),
            "golden {} profiled failed: {failures:?}",
            g.name
        );
        assert_eq!(
            baseline, profiled,
            "golden {} timeline changed with the profiler armed",
            g.name
        );

        let report = profiler.report().expect("armed profiler yields a report");
        assert!(
            report.total_ns() > 0,
            "golden {} recorded no spans at sample=1 — instrumentation is dead",
            g.name
        );
    }

    // Fleet members step the same session kernel as single sessions, so
    // their work lands under the same `session.*` spans, nested in the
    // coordinator's dispatch; `fleet.step` names only the round.
    let g = voxel::testkit::canonical_fleets()
        .into_iter()
        .find(|g| g.name == "fleet-voxel8")
        .expect("fleet-voxel8 is a canonical fleet");
    let baseline =
        voxel::testkit::run_fleet_golden_with_workers(&g, &content, Some(1)).expect("fleet runs");
    let profiler = voxel::obs::Profiler::with_sample(1);
    let profiled = {
        let _armed = profiler.install();
        voxel::testkit::run_fleet_golden_with_workers(&g, &content, Some(1))
            .expect("fleet runs under profiler")
    };
    assert!(profiled.failures.is_empty(), "{:?}", profiled.failures);
    assert_eq!(
        baseline.timeline, profiled.timeline,
        "fleet timeline changed with the profiler armed"
    );
    let report = profiler.report().expect("armed profiler yields a report");
    let mut edges: Vec<(Vec<&'static str>, &'static str)> = Vec::new();
    fn walk(
        nodes: &[voxel::obs::ReportNode],
        path: &mut Vec<&'static str>,
        edges: &mut Vec<(Vec<&'static str>, &'static str)>,
    ) {
        for n in nodes {
            edges.push((path.clone(), n.name));
            path.push(n.name);
            walk(&n.children, path, edges);
            path.pop();
        }
    }
    walk(&report.roots, &mut Vec::new(), &mut edges);
    let parent = |path: &Vec<&'static str>| path.last().copied().unwrap_or("<root>");
    assert!(
        edges.iter().any(|(_, name)| *name == "session.step"),
        "no per-session spans in a profiled fleet"
    );
    for (path, name) in &edges {
        assert_ne!(*name, "fleet.session", "the per-cell span is gone");
        if *name == "fleet.step" {
            assert!(
                !path.contains(&"fleet.step"),
                "fleet.step nested in a round: {path:?}"
            );
        }
        if parent(path) == "fleet.step" {
            assert!(
                name.starts_with("fleet."),
                "fleet.step has a non-coordinator child {name}"
            );
        }
        if *name == "session.step" {
            assert_eq!(parent(path), "fleet.pump", "session step outside dispatch");
        }
        if name.starts_with("quic.") {
            assert!(
                path.iter().any(|p| p.starts_with("session.")),
                "{name} outside any session span: {path:?}"
            );
        }
    }
}

/// The congestion-control fleet goldens ride the same bless workflow as
/// every other digest: both are committed under `tests/golden/`, both
/// stay listed in `canonical_fleets()` (what the conformance runner
/// iterates — so `VOXEL_BLESS=1 cargo run --release -p voxel-bench --bin
/// conformance -- --fleets-only` regenerates exactly these files), and
/// the workflow itself stays documented in DESIGN.md.
#[test]
fn cc_fleet_goldens_are_committed_and_regenerable() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for name in ["fleet-bbr8", "fleet-ccmix8"] {
        let path = dir.join(format!("{name}.digest"));
        let digest = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{} unreadable ({e}); regenerate with VOXEL_BLESS=1 \
                 cargo run --release -p voxel-bench --bin conformance -- --fleets-only",
                path.display()
            )
        });
        assert!(!digest.trim().is_empty(), "{name} digest is empty");
        assert!(
            voxel::testkit::canonical_fleets()
                .iter()
                .any(|g| g.name == name),
            "{name} left canonical_fleets(); its committed digest is now orphaned"
        );
    }
    let design = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md"))
        .expect("DESIGN.md");
    assert!(
        design.contains("VOXEL_BLESS=1"),
        "the bless workflow is no longer documented in DESIGN.md"
    );
}

#[test]
fn canonical_timelines_match_their_golden_digests() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut content = Content::new();
    for g in voxel::testkit::digest::canonical_scenarios() {
        let (timeline, failures) = run_golden(&g, &mut content).expect("scenario runs");
        assert!(
            failures.is_empty(),
            "golden {} failed its oracles: {failures:?}",
            g.name
        );
        match check_or_bless(&dir, &g, &timeline) {
            Ok(GoldenStatus::Matched) => {}
            Ok(GoldenStatus::Blessed) => eprintln!("blessed golden {}", g.name),
            Err(e) => panic!(
                "golden {} diverged: {e}\n\
                 If this change is intentional, re-bless with \
                 VOXEL_BLESS=1 cargo test --test golden_digests",
                g.name
            ),
        }
    }
}
