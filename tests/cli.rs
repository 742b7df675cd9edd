//! End-to-end tests of the `cyclops` command-line tool, driving the real
//! binary through generate → analyze → output-file round trips.

use std::process::Command;

fn cyclops(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cyclops"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cyclops-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = cyclops(&["help"]);
    assert!(ok);
    assert!(stdout.contains("usage: cyclops"));
    assert!(stdout.contains("pagerank"));
}

#[test]
fn unknown_command_fails_with_message() {
    let (ok, _, stderr) = cyclops(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn compute_schedule_has_no_flags() {
    // One claim loop over equal-mass chunks on every superstep: the
    // scheduler and sparse-cutoff dials are gone, not ignored.
    for [flag, value] in [["--sched", "dynamic"], ["--sparse-cutoff", "0"]] {
        let (ok, _, stderr) = cyclops(&["sssp", "--dataset", "RoadCA", flag, value]);
        assert!(!ok, "{flag} {value} was accepted");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    }
    let (_, help, _) = cyclops(&["help"]);
    assert!(!help.contains("--sched") && !help.contains("--sparse-cutoff"));
}

#[test]
fn pagerank_on_dataset_prints_ranks() {
    let (ok, stdout, stderr) = cyclops(&[
        "pagerank",
        "--dataset",
        "GWeb",
        "--scale",
        "0.03",
        "--top",
        "3",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("pagerank:"), "{stdout}");
    assert_eq!(stdout.lines().filter(|l| l.starts_with("  ")).count(), 3);
}

#[test]
fn gen_then_analyze_round_trip() {
    let graph_file = temp_path("gweb.txt");
    let (ok, stdout, stderr) = cyclops(&[
        "gen",
        "--dataset",
        "GWeb",
        "--scale",
        "0.03",
        "--output",
        graph_file.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("wrote"));

    let (ok, stdout, stderr) = cyclops(&["info", "--input", graph_file.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("vertices:"));

    let out_file = temp_path("ranks.txt");
    let (ok, _, stderr) = cyclops(&[
        "pagerank",
        "--input",
        graph_file.to_str().unwrap(),
        "--engine",
        "hama",
        "--output",
        out_file.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    let ranks = std::fs::read_to_string(&out_file).unwrap();
    assert!(ranks.lines().count() > 100);
    // Every line is "vertex value".
    for line in ranks.lines().take(5) {
        let mut parts = line.split_whitespace();
        parts.next().unwrap().parse::<u32>().unwrap();
        parts.next().unwrap().parse::<f64>().unwrap();
    }
}

#[test]
fn sssp_and_bfs_run_on_road() {
    let (ok, stdout, stderr) = cyclops(&[
        "sssp",
        "--dataset",
        "RoadCA",
        "--scale",
        "0.05",
        "--source",
        "3",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("sssp from 3"));

    let (ok, stdout, _) = cyclops(&[
        "bfs",
        "--dataset",
        "RoadCA",
        "--scale",
        "0.05",
        "--partitioner",
        "metis",
    ]);
    assert!(ok);
    assert!(stdout.contains("bfs from 0"));
}

#[test]
fn cc_cd_triangles_summaries() {
    let (ok, stdout, _) = cyclops(&["cc", "--dataset", "DBLP", "--scale", "0.05"]);
    assert!(ok);
    assert!(stdout.contains("components"));

    let (ok, stdout, _) = cyclops(&[
        "cd",
        "--dataset",
        "DBLP",
        "--scale",
        "0.05",
        "--sweeps",
        "5",
    ]);
    assert!(ok);
    assert!(stdout.contains("communities"));

    let (ok, stdout, _) = cyclops(&["triangles", "--dataset", "DBLP", "--scale", "0.05"]);
    assert!(ok);
    assert!(stdout.contains("triangles:"));
}

#[test]
fn out_of_range_source_is_rejected() {
    let (ok, _, stderr) = cyclops(&[
        "sssp",
        "--dataset",
        "Amazon",
        "--scale",
        "0.03",
        "--source",
        "99999999",
    ]);
    assert!(!ok);
    assert!(stderr.contains("out of range"));
}

#[test]
fn why_slow_json_matches_the_golden_report() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/why_slow.jsonl");
    let golden = include_str!("golden/why_slow.json");
    let (ok, stdout, stderr) = cyclops(&["why-slow", fixture, "--json"]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(
        stdout, golden,
        "why-slow --json drifted from tests/golden/why_slow.json; \
         if the change is intentional, regenerate the golden file"
    );
    // Byte-identical on a second run: the report is a pure function of
    // the trace.
    let (_, again, _) = cyclops(&["why-slow", fixture, "--json"]);
    assert_eq!(stdout, again);
}

#[test]
fn why_slow_report_names_straggler_and_hot_vertices() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/why_slow.jsonl");
    let (ok, stdout, stderr) = cyclops(&["why-slow", fixture]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("worker 0 CMP"), "{stdout}");
    assert!(stdout.contains("critical path 1100ns"), "{stdout}");
    assert!(stdout.contains("hot vertices"), "{stdout}");

    let (ok, _, stderr) = cyclops(&["why-slow"]);
    assert!(!ok);
    assert!(stderr.contains("why-slow needs one trace file"), "{stderr}");

    // --hot without a trace sink would silently capture nothing.
    let (ok, _, stderr) = cyclops(&[
        "pagerank",
        "--dataset",
        "Amazon",
        "--scale",
        "0.03",
        "--hot",
        "4",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--hot needs --trace"), "{stderr}");
}

/// Every trace-consuming command goes through the same loader, so a
/// missing, empty, or malformed trace must produce the same diagnostic
/// shape — `trace <path>: <cause>` — and a non-zero exit, regardless of
/// which command hit it.
#[test]
fn trace_commands_share_consistent_error_messages() {
    let missing = temp_path("nope.jsonl");
    let missing = missing.to_str().unwrap();
    let empty = temp_path("empty.jsonl");
    std::fs::write(&empty, "").unwrap();
    let empty = empty.to_str().unwrap();
    let bad_header = temp_path("bad-header.jsonl");
    std::fs::write(&bad_header, "not json\n").unwrap();
    let bad_header = bad_header.to_str().unwrap();
    let truncated = temp_path("truncated.jsonl");
    std::fs::write(
        &truncated,
        "{\"engine\":\"cyclops\",\"cluster\":\"1x1x1\",\"workers\":1,\"values\":false}\n\
         {\"superstep\":0,\"worker\"\n",
    )
    .unwrap();
    let truncated = truncated.to_str().unwrap();

    let commands = [
        "metrics",
        "top",
        "why-slow",
        "trace-diff",
        "timeline",
        "comm",
        "mem",
    ];
    for command in commands {
        for (path, cause) in [
            (missing, "file not found"),
            (empty, "empty trace"),
            (bad_header, "bad trace header"),
            (truncated, "bad record on line 2"),
        ] {
            let args = match command {
                "top" => vec![command, path, "--once"],
                "trace-diff" => vec![command, path, path],
                _ => vec![command, path],
            };
            let (ok, _, stderr) = cyclops(&args);
            assert!(!ok, "{args:?} must fail");
            let expected = format!("error: trace {path}: {cause}");
            assert!(
                stderr.contains(&expected),
                "{args:?}: expected {expected:?} in {stderr:?}"
            );
        }
    }
}

/// Minimal recursive-descent JSON syntax checker: returns the remainder
/// after one value, or None on malformed input. Enough to assert the
/// Chrome export *parses* without pulling in a JSON dependency.
fn json_value(s: &str) -> Option<&str> {
    let s = s.trim_start();
    let mut chars = s.char_indices();
    match chars.next()?.1 {
        '{' => {
            let mut rest = s[1..].trim_start();
            if let Some(r) = rest.strip_prefix('}') {
                return Some(r);
            }
            loop {
                rest = json_value(rest)?.trim_start(); // key (validated as a value)
                rest = rest.strip_prefix(':')?;
                rest = json_value(rest)?.trim_start();
                match rest.chars().next()? {
                    ',' => rest = rest[1..].trim_start(),
                    '}' => return Some(&rest[1..]),
                    _ => return None,
                }
            }
        }
        '[' => {
            let mut rest = s[1..].trim_start();
            if let Some(r) = rest.strip_prefix(']') {
                return Some(r);
            }
            loop {
                rest = json_value(rest)?.trim_start();
                match rest.chars().next()? {
                    ',' => rest = rest[1..].trim_start(),
                    ']' => return Some(&rest[1..]),
                    _ => return None,
                }
            }
        }
        '"' => {
            let mut escaped = false;
            for (i, c) in chars {
                match c {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => return Some(&s[i + 1..]),
                    _ => {}
                }
            }
            None
        }
        _ => {
            let end = s
                .find(|c: char| !c.is_ascii_alphanumeric() && !"+-.".contains(c))
                .unwrap_or(s.len());
            let token = &s[..end];
            if token == "true"
                || token == "false"
                || token == "null"
                || token.parse::<f64>().is_ok()
            {
                Some(&s[end..])
            } else {
                None
            }
        }
    }
}

fn assert_valid_json(s: &str) {
    let rest = json_value(s).unwrap_or_else(|| panic!("malformed JSON: {s}"));
    assert!(
        rest.trim().is_empty(),
        "trailing garbage after JSON: {rest}"
    );
}

/// The flight-recorder round trip: a `--flight` run appends span lines to
/// the trace, `timeline --chrome` exports them as valid Chrome trace-event
/// JSON, and `comm` verifies the worker-pair matrix against the sent
/// counters.
#[test]
fn flight_run_exports_chrome_trace_and_comm_matrix() {
    let trace = temp_path("flight.jsonl");
    let trace = trace.to_str().unwrap();
    let (ok, stdout, stderr) = cyclops(&[
        "pagerank",
        "--dataset",
        "Amazon",
        "--scale",
        "0.03",
        "--trace",
        trace,
        "--flight",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("flight-recorder spans appended"),
        "{stdout}"
    );
    let raw = std::fs::read_to_string(trace).unwrap();
    assert!(
        raw.contains("\"span\":\"cmp\""),
        "no compute spans in trace"
    );
    assert!(raw.contains("\"span\":\"barrier\""), "no barrier spans");
    assert!(raw.contains("\"span\":\"flush\""), "no flush spans");

    let (ok, stdout, stderr) = cyclops(&["timeline", trace]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("spans over"), "{stdout}");
    assert!(stdout.contains("cmp"), "{stdout}");

    let chrome = temp_path("flight.chrome.json");
    let chrome = chrome.to_str().unwrap();
    let (ok, _, stderr) = cyclops(&["timeline", trace, "--chrome", chrome]);
    assert!(ok, "stderr: {stderr}");
    let exported = std::fs::read_to_string(chrome).unwrap();
    assert_valid_json(&exported);
    assert!(exported.contains("\"traceEvents\""), "{exported}");
    assert!(exported.contains("\"ph\":\"X\""), "{exported}");

    let (ok, stdout, stderr) = cyclops(&["comm", trace]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("row sums consistent"), "{stdout}");
    assert!(stdout.contains("heatmap"), "{stdout}");
}

/// Without `--flight` the trace has no spans; `timeline --chrome` still
/// exports valid JSON by synthesizing phase spans from the records, and
/// `--flight` without `--trace` is rejected.
#[test]
fn timeline_synthesizes_chrome_spans_without_flight() {
    let trace = temp_path("noflight.jsonl");
    let trace = trace.to_str().unwrap();
    let (ok, _, stderr) = cyclops(&[
        "pagerank",
        "--dataset",
        "Amazon",
        "--scale",
        "0.03",
        "--trace",
        trace,
    ]);
    assert!(ok, "stderr: {stderr}");
    let chrome = temp_path("noflight.chrome.json");
    let chrome = chrome.to_str().unwrap();
    let (ok, stdout, stderr) = cyclops(&["timeline", trace, "--chrome", chrome]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("no flight-recorder spans"), "{stdout}");
    let exported = std::fs::read_to_string(chrome).unwrap();
    assert_valid_json(&exported);
    assert!(exported.contains("\"synthetic\":true"), "{exported}");

    let (ok, _, stderr) = cyclops(&["pagerank", "--dataset", "Amazon", "--flight"]);
    assert!(!ok);
    assert!(stderr.contains("--flight needs --trace"), "{stderr}");
}

#[test]
fn invalid_bucket_width_fails_with_nonzero_exit() {
    for width in ["NaN", "-3", "inf", "1e19", "nope"] {
        let (ok, _, stderr) = cyclops(&["sssp", "--dataset", "RoadCA", "--bucket-width", width]);
        assert!(!ok, "--bucket-width {width} must be rejected");
        assert!(
            stderr.contains("--bucket-width must be `auto` or a finite width")
                || stderr.contains("--bucket-width:"),
            "--bucket-width {width}: unexpected diagnostic {stderr:?}"
        );
    }
}

#[test]
fn bucketed_sssp_matches_classic_distances_with_fewer_supersteps() {
    let graph_file = temp_path("bucketed.txt");
    cyclops(&[
        "gen",
        "--dataset",
        "RoadCA",
        "--scale",
        "0.05",
        "--output",
        graph_file.to_str().unwrap(),
    ]);
    let supersteps = |stdout: &str| -> u64 {
        let rest = stdout.split("sssp from 0: ").nth(1).expect("summary line");
        rest.split(' ').next().unwrap().parse().unwrap()
    };
    let classic_file = temp_path("classic-dist.txt");
    let (ok, stdout, stderr) = cyclops(&[
        "sssp",
        "--input",
        graph_file.to_str().unwrap(),
        "--output",
        classic_file.to_str().unwrap(),
    ]);
    assert!(ok, "classic: {stderr}");
    let classic_steps = supersteps(&stdout);

    let file = temp_path("bucketed-dist.txt");
    let (ok, stdout, stderr) = cyclops(&[
        "sssp",
        "--input",
        graph_file.to_str().unwrap(),
        "--bucket-width",
        "auto",
        "--output",
        file.to_str().unwrap(),
    ]);
    assert!(ok, "bucketed: {stderr}");
    assert!(
        supersteps(&stdout) < classic_steps,
        "bucketing must cut supersteps: {stdout} vs {classic_steps}"
    );
    assert_eq!(
        std::fs::read_to_string(&classic_file).unwrap(),
        std::fs::read_to_string(&file).unwrap(),
        "bucketed distances must be byte-identical to classic"
    );
}

#[test]
fn engines_agree_via_cli_output_files() {
    let graph_file = temp_path("agree.txt");
    cyclops(&[
        "gen",
        "--dataset",
        "Amazon",
        "--scale",
        "0.03",
        "--output",
        graph_file.to_str().unwrap(),
    ]);
    let cy_file = temp_path("cy.txt");
    let ha_file = temp_path("ha.txt");
    for (engine, file) in [("cyclops", &cy_file), ("hama", &ha_file)] {
        let (ok, _, stderr) = cyclops(&[
            "sssp",
            "--input",
            graph_file.to_str().unwrap(),
            "--engine",
            engine,
            "--output",
            file.to_str().unwrap(),
        ]);
        assert!(ok, "{engine}: {stderr}");
    }
    assert_eq!(
        std::fs::read_to_string(&cy_file).unwrap(),
        std::fs::read_to_string(&ha_file).unwrap()
    );
}

#[test]
fn a_run_prints_its_loop_time_on_stderr_only() {
    for engine in ["cyclops", "hama"] {
        let (ok, stdout, stderr) = cyclops(&[
            "pagerank",
            "--dataset",
            "Amazon",
            "--scale",
            "0.02",
            "--max-supersteps",
            "5",
            "--engine",
            engine,
        ]);
        assert!(ok, "{engine}: {stderr}");
        let lines: Vec<&str> = stderr.lines().filter(|l| l.starts_with("loop: ")).collect();
        assert_eq!(lines.len(), 1, "{engine}: one loop line in {stderr:?}");
        let seconds = lines[0]
            .strip_prefix("loop: ")
            .and_then(|l| l.strip_suffix(" s"));
        let seconds: f64 = seconds.and_then(|s| s.parse().ok()).expect(lines[0]);
        assert!(seconds > 0.0 && seconds < 60.0, "{engine}: {seconds} s");
        assert!(
            !stdout.contains("loop:"),
            "{engine}: stdout stays comparable"
        );
    }
}

#[test]
fn mem_json_matches_the_golden_report() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/mem.jsonl");
    let golden = include_str!("golden/mem.json");
    let (ok, stdout, stderr) = cyclops(&["mem", fixture, "--json"]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(
        stdout, golden,
        "mem --json drifted from tests/golden/mem.json; \
         if the change is intentional, regenerate the golden file"
    );
    // Byte-identical on a second run: the report is a pure function of
    // the trace.
    let (_, again, _) = cyclops(&["mem", fixture, "--json"]);
    assert_eq!(stdout, again);
}

#[test]
fn mem_report_renders_worker_and_untagged_rows() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/mem.jsonl");
    let (ok, stdout, stderr) = cyclops(&["mem", fixture]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("peak bytes by worker and component"),
        "{stdout}"
    );
    assert!(stdout.contains("untagged"), "{stdout}");
    assert!(stdout.contains("replicas"), "{stdout}");
    assert!(stdout.contains("process rss: peak"), "{stdout}");

    let (ok, _, stderr) = cyclops(&["mem"]);
    assert!(!ok);
    assert!(stderr.contains("mem needs one trace file"), "{stderr}");

    // Memory samples ride on the trace file, so --mem alone is an error.
    let (ok, _, stderr) = cyclops(&[
        "pagerank",
        "--dataset",
        "Amazon",
        "--scale",
        "0.03",
        "--mem",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--mem needs --trace"), "{stderr}");
}

/// A trace from a run without `--mem` reports "no memory samples" rather
/// than an empty table or an error.
#[test]
fn mem_on_plain_trace_reports_no_samples() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/why_slow.jsonl");
    let (ok, stdout, stderr) = cyclops(&["mem", fixture]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("no memory samples recorded"), "{stdout}");
}

/// The tentpole's determinism contract: arming the tracking allocator with
/// `--mem` must not perturb the run — the trace (records and values alike)
/// stays `trace-diff`-identical to the same run without it, because memory
/// samples live on separate `{"mem":…}` lines outside the diff contract.
#[test]
fn mem_run_is_trace_diff_identical_to_plain_run() {
    let plain = temp_path("mem-equiv-plain.jsonl");
    let armed = temp_path("mem-equiv-armed.jsonl");
    let plain = plain.to_str().unwrap();
    let armed = armed.to_str().unwrap();
    let base = [
        "pagerank",
        "--dataset",
        "Amazon",
        "--scale",
        "0.04",
        "--machines",
        "2",
        "--workers",
        "2",
        "--values",
    ];
    let mut a: Vec<&str> = base.to_vec();
    a.extend_from_slice(&["--trace", plain]);
    let (ok, _, stderr) = cyclops(&a);
    assert!(ok, "stderr: {stderr}");
    let mut b: Vec<&str> = base.to_vec();
    b.extend_from_slice(&["--trace", armed, "--mem"]);
    let (ok, stdout, stderr) = cyclops(&b);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("memory samples appended"), "{stdout}");

    // Full diff including values digests: byte-for-byte identical records.
    let (ok, stdout, stderr) = cyclops(&["trace-diff", plain, armed, "--values"]);
    assert!(ok, "diff failed: {stdout} {stderr}");
    assert!(stdout.contains("traces agree"), "{stdout}");

    // And the armed trace actually carries mem samples.
    let contents = std::fs::read_to_string(armed).unwrap();
    assert!(
        contents.lines().any(|l| l.starts_with("{\"mem\":")),
        "no mem lines in {armed}"
    );
}

/// The why-slow migration paragraph, pinned against a golden fixture whose
/// superstep-1 records carry `migrated` counters: the JSON gains a
/// `migrations` array with integer-permille imbalance, and the human
/// report gains the paragraph. The migration-free golden
/// (`why_slow.json`, exact-matched above) proves static traces stay
/// byte-identical.
#[test]
fn why_slow_migration_paragraph_matches_the_golden_report() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/why_slow_migrate.jsonl"
    );
    let golden = include_str!("golden/why_slow_migrate.json");
    let (ok, stdout, stderr) = cyclops(&["why-slow", fixture, "--json"]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(
        stdout, golden,
        "why-slow --json drifted from tests/golden/why_slow_migrate.json; \
         if the change is intentional, regenerate the golden file"
    );
    let (ok, stdout, stderr) = cyclops(&["why-slow", fixture]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("dynamic migration: 5 masters moved across 1 epoch boundaries"),
        "{stdout}"
    );
    assert!(stdout.contains("imb-before"), "{stdout}");
}

/// Every report command's stdout, and the file `timeline --chrome` writes,
/// byte for byte against `tests/golden/reports/`, on every golden fixture.
/// `sssp_flight.jsonl` is a real `sssp --bucket-width auto
/// --replicate-threshold 8 --flight --hot 4 --mem` run on two machines: it
/// carries spans, fused buckets, direct messages and memory samples. A
/// golden is the command's own output: regenerate one by running the
/// command on its fixture from `tests/golden` and redirecting stdout.
#[test]
fn every_report_matches_its_golden() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let golden = |name: &str| {
        let path = format!("{dir}/reports/{name}");
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let text: [(&str, &[&str]); 6] = [
        ("metrics.txt", &["metrics"]),
        ("top.txt", &["top", "--once"]),
        ("why_slow.txt", &["why-slow"]),
        ("comm.txt", &["comm"]),
        ("timeline.txt", &["timeline"]),
        ("mem.txt", &["mem"]),
    ];
    let json: [(&str, &[&str]); 2] = [
        ("why_slow.json", &["why-slow", "--json"]),
        ("mem.json", &["mem", "--json"]),
    ];
    for fixture in ["why_slow", "why_slow_migrate", "mem", "sssp_flight"] {
        let trace = format!("{dir}/{fixture}.jsonl");
        let extra = if fixture == "sssp_flight" {
            &json[..]
        } else {
            &json[..0]
        };
        for &(name, args) in text.iter().chain(extra) {
            let mut argv = vec![args[0], trace.as_str()];
            argv.extend(&args[1..]);
            let (_, stdout, stderr) = cyclops(&argv);
            let want = golden(&format!("{fixture}.{name}"));
            assert_eq!(stdout, want, "cyclops {argv:?} drifted ({stderr})");
        }
        let chrome = temp_path(&format!("golden-{fixture}.chrome.json"));
        let chrome = chrome.to_str().unwrap();
        let (ok, _, stderr) = cyclops(&["timeline", trace.as_str(), "--chrome", chrome]);
        assert!(ok, "stderr: {stderr}");
        let exported = std::fs::read_to_string(chrome).unwrap();
        let want = golden(&format!("{fixture}.chrome.json"));
        assert_eq!(exported, want, "{fixture}: timeline --chrome drifted");
    }
}

/// A trace file is input from outside the program, so the sizes it claims
/// must not size anything a report allocates or loops over: a header
/// claiming 2^32 workers and a record claiming superstep 2^40 each leave
/// every report command finishing promptly, with success or a
/// `trace <path>:` error.
#[test]
fn report_commands_survive_oversized_claims() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    for fixture in ["huge_workers", "huge_superstep"] {
        let trace = format!("{dir}/{fixture}.jsonl");
        let chrome = temp_path(&format!("{fixture}.chrome.json"));
        let chrome = chrome.to_str().unwrap();
        let t = trace.as_str();
        let commands: [&[&str]; 9] = [
            &["metrics", t],
            &["top", t, "--once"],
            &["why-slow", t],
            &["why-slow", t, "--json"],
            &["comm", t],
            &["timeline", t, "--chrome", chrome],
            &["mem", t],
            &["mem", t, "--json"],
            &["trace-diff", t, t],
        ];
        for args in commands {
            let mut child = Command::new(env!("CARGO_BIN_EXE_cyclops"))
                .args(args)
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .expect("binary runs");
            let deadline = Instant::now() + Duration::from_secs(5);
            while child.try_wait().unwrap().is_none() {
                if Instant::now() > deadline {
                    child.kill().ok();
                    panic!("cyclops {args:?} still running after 5 s");
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            let out = child.wait_with_output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success() || stderr.contains(&format!("error: trace {t}:")),
                "cyclops {args:?}: {:?} {stderr}",
                out.status
            );
        }
    }
}

/// End-to-end dynamic migration on a skewed partition: `--migrate K`
/// actually moves masters, the run stays values-identical to
/// `--migrate off` under the aggregated `trace-diff --values-only`
/// contract, the communication matrix stays row-sum consistent across
/// the migration boundaries, and why-slow reports the paragraph.
#[test]
fn migrated_run_is_values_identical_and_comm_consistent() {
    let moved = temp_path("migrate-on.jsonl");
    let still = temp_path("migrate-off.jsonl");
    let moved = moved.to_str().unwrap();
    let still = still.to_str().unwrap();
    let base = [
        "sssp",
        "--dataset",
        "RoadCA",
        "--scale",
        "0.05",
        "--skew",
        "0.6",
        "--machines",
        "4",
        "--workers",
        "1",
        "--values",
    ];
    let mut a: Vec<&str> = base.to_vec();
    a.extend_from_slice(&["--migrate", "8", "--trace", moved]);
    let (ok, stdout, stderr) = cyclops(&a);
    assert!(ok, "stderr: {stderr}");
    let report = stdout
        .lines()
        .find(|l| l.starts_with("migration:"))
        .unwrap_or_else(|| panic!("no migration report in {stdout}"))
        .to_string();
    assert!(!report.contains("moves=0"), "nothing migrated: {report}");
    let mut b: Vec<&str> = base.to_vec();
    b.extend_from_slice(&["--migrate", "off", "--trace", still]);
    let (ok, stdout, stderr) = cyclops(&b);
    assert!(ok, "stderr: {stderr}");
    assert!(
        !stdout.contains("migration:"),
        "off run must not report migration: {stdout}"
    );

    // Same values, same superstep count, per the aggregated contract.
    let (ok, stdout, stderr) = cyclops(&["trace-diff", moved, still, "--values-only"]);
    assert!(ok, "diff failed: {stdout} {stderr}");
    assert!(stdout.contains("traces agree"), "{stdout}");

    // Comm rows keep summing to the sent counters across every migration
    // boundary — rewiring must not desynchronize the matrix.
    let (ok, stdout, stderr) = cyclops(&["comm", moved]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("row sums consistent"), "{stdout}");

    // The migrated trace carries the boundaries into why-slow.
    let (ok, stdout, stderr) = cyclops(&["why-slow", moved]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("dynamic migration:"), "{stdout}");
}

/// `--migrate` is cyclops-engine-only and mutually exclusive with the
/// bucketed scheduler; `--skew` rejects fractions outside [0, 1).
/// A migrated run's `--prom` file is valid Prometheus text: every metric
/// name has one `# TYPE` line, and under a histogram's line sit only its
/// `_bucket`, `_sum` and `_count` samples. A gauge sharing a histogram's
/// name would put gauge samples under its `# TYPE ... histogram` line.
#[test]
fn migrated_prom_file_has_one_kind_per_name() {
    let prom = temp_path("migrate-auto.prom");
    let prom = prom.to_str().unwrap();
    let (ok, stdout, stderr) = cyclops(&[
        "pagerank",
        "--dataset",
        "GWeb",
        "--scale",
        "0.05",
        "--skew",
        "0.6",
        "--migrate",
        "auto",
        "--prom",
        prom,
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("migration: "), "{stdout}");
    let text = std::fs::read_to_string(prom).unwrap();
    let mut typed = std::collections::BTreeSet::new();
    let mut family: Option<(&str, &str)> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').unwrap();
            assert!(typed.insert(name), "second # TYPE line for {name}");
            family = Some((name, kind));
            continue;
        }
        let sample = line.split(['{', ' ']).next().unwrap();
        let (name, kind) = family.unwrap_or_else(|| panic!("{sample} before any # TYPE"));
        let ok = if kind == "histogram" {
            ["_bucket", "_sum", "_count"]
                .iter()
                .any(|suffix| sample.strip_suffix(suffix) == Some(name))
        } else {
            sample == name
        };
        assert!(ok, "{sample} sits under # TYPE {name} {kind}");
    }
    assert!(typed.contains("cyclops_migration_imbalance"), "{text}");
}

#[test]
fn migrate_flag_combinations_are_validated() {
    let (ok, _, stderr) = cyclops(&[
        "pagerank",
        "--dataset",
        "GWeb",
        "--scale",
        "0.03",
        "--engine",
        "hama",
        "--migrate",
        "4",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("--migrate needs --engine cyclops"),
        "{stderr}"
    );
    let (ok, _, stderr) = cyclops(&[
        "bfs",
        "--dataset",
        "RoadCA",
        "--scale",
        "0.05",
        "--migrate",
        "4",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("--migrate applies to pagerank and sssp"),
        "{stderr}"
    );
    let (ok, _, stderr) = cyclops(&[
        "sssp",
        "--dataset",
        "RoadCA",
        "--scale",
        "0.05",
        "--migrate",
        "4",
        "--bucket-width",
        "2",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("--migrate and --bucket-width are mutually exclusive"),
        "{stderr}"
    );
    let (ok, _, stderr) = cyclops(&["sssp", "--dataset", "RoadCA", "--skew", "1.5"]);
    assert!(!ok);
    assert!(stderr.contains("--skew"), "{stderr}");
}

const RUN_COMMANDS: [&str; 6] = ["pagerank", "sssp", "bfs", "cc", "cd", "triangles"];

/// Runs `command` on `engine` over a small road graph with `--trace` (plus
/// `extra`), checks the trace file is a header and at least one record that
/// `trace-diff` accepts, and returns the superstep count `trace-diff` saw.
/// `test` keeps concurrently running tests off each other's files.
fn traced_supersteps(test: &str, command: &str, engine: &str, extra: &[&str]) -> u64 {
    let trace = temp_path(&format!("{test}-{command}-{engine}.jsonl"));
    let trace = trace.to_str().unwrap();
    let mut args = vec![
        command,
        "--dataset",
        "RoadCA",
        "--scale",
        "0.02",
        "--engine",
        engine,
        "--trace",
        trace,
    ];
    args.extend_from_slice(extra);
    let (ok, stdout, stderr) = cyclops(&args);
    assert!(ok, "{command} on {engine}: {stderr}");
    assert!(
        stdout.contains(&format!("trace written to {trace}")),
        "{command} on {engine}: {stdout}"
    );
    let raw = std::fs::read_to_string(trace)
        .unwrap_or_else(|e| panic!("{command} on {engine} wrote no trace: {e}"));
    let mut lines = raw.lines();
    let header = lines.next().expect("trace header");
    assert!(
        header.contains("\"engine\":") && header.contains("\"workers\":4"),
        "{command} on {engine}: header {header}"
    );
    assert!(
        lines.any(|l| l.contains("\"superstep\":0")),
        "{command} on {engine}: no superstep-0 record"
    );
    let (ok, stdout, stderr) = cyclops(&["trace-diff", trace, trace]);
    assert!(ok, "{command} on {engine}: {stdout} {stderr}");
    let rest = stdout
        .split("traces agree: ")
        .nth(1)
        .unwrap_or_else(|| panic!("{command} on {engine}: {stdout}"));
    rest.split(' ').next().unwrap().parse().unwrap()
}

/// One driver per engine builds and finishes the sink, so `--trace` (and
/// what rides on it) reaches every run command on both engines. At the
/// parent commit bfs, cd and triangles exited 0 without writing the file
/// and Hama refused sssp and cc.
#[test]
fn every_run_command_writes_its_trace() {
    for command in RUN_COMMANDS {
        for engine in ["cyclops", "hama"] {
            assert!(traced_supersteps("every", command, engine, &[]) >= 1);
        }
    }
}

/// An explicit `--max-supersteps` is a hard cap on every command, not only
/// on the two whose runner happened to take one.
#[test]
fn max_supersteps_caps_every_run_command() {
    for command in RUN_COMMANDS {
        for engine in ["cyclops", "hama"] {
            let ran = traced_supersteps("capped", command, engine, &["--max-supersteps", "2"]);
            // Cyclops counts triangles in one superstep; everything else
            // here runs well past two when uncapped.
            if (command, engine) == ("triangles", "cyclops") {
                assert!(ran <= 2, "{command} on {engine} ran {ran}");
            } else {
                assert_eq!(ran, 2, "{command} on {engine}");
            }
        }
    }
}

/// The restrictions that survive the one driver each have a reason in an
/// engine, and each is an error rather than a silently dropped flag (the
/// `--migrate` ones are in `migrate_flag_combinations_are_validated`).
#[test]
fn surviving_restrictions_are_errors() {
    let road = ["--dataset", "RoadCA", "--scale", "0.02"];
    for (args, expected) in [
        // Buckets order activations by the program's priority().
        (
            vec!["pagerank", "--bucket-width", "2"],
            "--bucket-width applies to sssp and bfs",
        ),
        (
            vec!["cc", "--bucket-width", "auto"],
            "--bucket-width applies to sssp and bfs",
        ),
        // Hama runs one relaxation round per superstep.
        (
            vec!["sssp", "--engine", "hama", "--bucket-width", "auto"],
            "--bucket-width needs --engine cyclops",
        ),
        (
            vec!["bfs", "--engine", "hama", "--bucket-width", "auto"],
            "--bucket-width needs --engine cyclops",
        ),
        // Hama has no replicas.
        (
            vec!["cc", "--engine", "hama", "--replicate-threshold", "4"],
            "--replicate-threshold needs --engine cyclops",
        ),
        (
            vec!["sssp", "--engine", "hama", "--replicate-threshold", "auto"],
            "--replicate-threshold needs --engine cyclops",
        ),
    ] {
        let mut full = args.clone();
        full.extend_from_slice(&road);
        let (ok, _, stderr) = cyclops(&full);
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
    }
    // What is not restricted any more: the threshold on a command that had
    // no tuned runner, bucketed bfs on Cyclops.
    for args in [
        vec!["triangles", "--replicate-threshold", "4"],
        vec!["cd", "--replicate-threshold", "auto", "--sweeps", "3"],
        vec!["bfs", "--bucket-width", "auto"],
    ] {
        let mut full = args.clone();
        full.extend_from_slice(&road);
        let (ok, _, stderr) = cyclops(&full);
        assert!(ok, "{args:?}: {stderr}");
    }
}

/// A trace keeps its first supersteps: a run longer than 4 096 supersteps
/// writes every record, so `metrics` counts supersteps x workers and two
/// identical runs diff clean from superstep 0.
#[test]
fn a_long_run_keeps_every_trace_record() {
    let ring = temp_path("ring8.txt");
    let edges: String = (0..8).map(|v| format!("{v} {}\n", (v + 1) % 8)).collect();
    std::fs::write(&ring, edges).unwrap();
    let ring = ring.to_str().unwrap();
    let (a, b) = (temp_path("ring8-a.jsonl"), temp_path("ring8-b.jsonl"));
    let traces = [a.to_str().unwrap(), b.to_str().unwrap()];
    for trace in traces {
        let (ok, stdout, stderr) = cyclops(&[
            "pagerank",
            "--input",
            ring,
            "--epsilon",
            "-1",
            "--max-supersteps",
            "4200",
            "--machines",
            "1",
            "--workers",
            "2",
            "--trace",
            trace,
        ]);
        assert!(ok, "stderr: {stderr}");
        assert!(
            stdout.contains(&format!("trace written to {trace}: 8400 records")),
            "{stdout}"
        );
        let (ok, stdout, stderr) = cyclops(&["metrics", trace]);
        assert!(ok, "stderr: {stderr}");
        assert!(
            stdout.contains("8400 records over 4200 supersteps"),
            "{stdout}"
        );
    }
    let (ok, stdout, stderr) = cyclops(&["trace-diff", traces[0], traces[1]]);
    assert!(ok, "{stdout} {stderr}");
    assert!(
        stdout.contains("traces agree: 4200 supersteps x 2 workers"),
        "{stdout}"
    );
}

/// Every line a `--flight --mem --values` run writes — header, records,
/// spans and memory samples — re-serializes byte for byte through the one
/// reader, and a live tail sees the header and records the strict loader
/// sees, whether it reads the file in one poll or one appended line at a
/// time.
#[test]
fn every_trace_line_round_trips_and_the_follower_agrees_with_the_loader() {
    use cyclops::net::trace::{read_jsonl, TraceLine, TraceRecord};
    use cyclops::obs::TraceFollower;
    use std::io::Write;
    let trace = temp_path("round-trip.jsonl");
    let trace = trace.to_str().unwrap();
    let (ok, _, stderr) = cyclops(&[
        "pagerank",
        "--dataset",
        "Amazon",
        "--scale",
        "0.03",
        "--max-supersteps",
        "6",
        "--trace",
        trace,
        "--flight",
        "--mem",
        "--values",
    ]);
    assert!(ok, "stderr: {stderr}");
    let raw = std::fs::read_to_string(trace).unwrap();
    let mut kinds = [0usize; 4];
    for line in raw.lines() {
        let parsed = TraceLine::parse(line).unwrap_or_else(|| panic!("unparsable: {line}"));
        kinds[match parsed {
            TraceLine::Meta(_) => 0,
            TraceLine::Record(_) => 1,
            TraceLine::Span(_) => 2,
            TraceLine::Mem(_) => 3,
        }] += 1;
        let mut again = String::new();
        parsed.to_json(&mut again);
        assert_eq!(again, line);
    }
    assert_eq!(kinds[0], 1, "one header: {kinds:?}");
    assert!(kinds.iter().all(|&n| n > 0), "every line kind: {kinds:?}");

    let loaded = read_jsonl(trace).unwrap();
    let sorted = |mut r: Vec<TraceRecord>| {
        r.sort_by_key(|r| (r.superstep, r.worker));
        r
    };
    let mut whole = TraceFollower::new(trace);
    let records = sorted(whole.poll().unwrap());
    assert_eq!(whole.meta(), Some(&loaded.meta));
    assert_eq!(records, loaded.records, "one poll");

    let tail = temp_path("round-trip-tail.jsonl");
    let mut f = std::fs::File::create(&tail).unwrap();
    let mut follower = TraceFollower::new(tail.to_str().unwrap());
    let mut records = Vec::new();
    for line in raw.lines() {
        writeln!(f, "{line}").unwrap();
        records.extend(follower.poll().unwrap());
    }
    assert_eq!(follower.meta(), Some(&loaded.meta));
    assert_eq!(sorted(records), loaded.records, "one line per poll");
}
