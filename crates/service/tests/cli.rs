//! `cpsdfad` flag-handling tests, driven over the real binary.

use std::process::{Command, Stdio};

fn cpsdfad() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cpsdfad"))
}

#[test]
fn unknown_flags_print_usage_and_exit_nonzero() {
    for bad in ["--bogus", "-x", "--sessions"] {
        let out = cpsdfad()
            .arg(bad)
            .stdin(Stdio::null())
            .output()
            .expect("spawn cpsdfad");
        assert!(
            !out.status.success(),
            "{bad}: unknown flags must exit nonzero"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown flag") && stderr.contains(bad),
            "{bad}: stderr must name the offending flag: {stderr}"
        );
        assert!(
            stderr.contains("--workers") && stderr.contains("--trace"),
            "{bad}: stderr must include the usage text: {stderr}"
        );
    }
}

#[test]
fn flags_missing_their_value_exit_nonzero() {
    let out = cpsdfad()
        .arg("--workers")
        .stdin(Stdio::null())
        .output()
        .expect("spawn cpsdfad");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--workers needs a value"),
        "stderr: {stderr}"
    );
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = cpsdfad()
            .arg(flag)
            .stdin(Stdio::null())
            .output()
            .expect("spawn cpsdfad");
        assert!(out.status.success(), "{flag} exits zero");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("analysis daemon") && stdout.contains("--no-cache"),
            "{flag}: stdout must carry the usage text: {stdout}"
        );
    }
}

#[test]
fn empty_stdin_serves_and_exits_zero() {
    let out = cpsdfad()
        .stdin(Stdio::null())
        .output()
        .expect("spawn cpsdfad");
    assert!(out.status.success(), "EOF on stdin is a clean shutdown");
}

#[test]
fn non_numeric_certify_and_ttl_values_exit_nonzero() {
    for (flag, value) in [("--certify", "always"), ("--session-ttl-ms", "10s")] {
        let out = cpsdfad()
            .args([flag, value])
            .stdin(Stdio::null())
            .output()
            .expect("spawn cpsdfad");
        assert!(!out.status.success(), "{flag} {value} must exit nonzero");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "stderr names the flag: {stderr}");
    }
}

#[test]
fn persist_certify_and_ttl_flags_drive_a_crash_safe_daemon() {
    use std::io::Write;
    let dir = std::env::temp_dir().join(format!("cpsdfad-cli-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = |input: &str| -> String {
        let mut child = cpsdfad()
            .args(["--persist-dir", dir.to_str().unwrap()])
            .args([
                "--certify",
                "1",
                "--session-ttl-ms",
                "60000",
                "--workers",
                "1",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn cpsdfad");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
        let out = child.wait_with_output().expect("cpsdfad exits");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };

    // First run: solve one program (spilling it), then ask for health.
    let req = r#"{"id": 1, "analysis": "cfa.cps", "program": "(let (f (lambda (x) x)) (f 1))"}"#;
    let first = run(&format!("{req}\n{{\"cmd\": \"shutdown\"}}\n"));
    assert!(first.contains("\"cache\": \"miss\""), "{first}");

    // Second run over the same directory: the recovered entry serves as a
    // hit, and health reports the recovery.
    let second = run(&format!("{req}\n{{\"cmd\": \"shutdown\"}}\n"));
    assert!(second.contains("\"cache\": \"hit\""), "{second}");
    let health = run("{\"cmd\": \"health\"}\n{\"cmd\": \"shutdown\"}\n");
    assert!(health.contains("\"status\": \"health\""), "{health}");
    assert!(health.contains("\"persist\": true"), "{health}");
    assert!(health.contains("\"recovered_entries\": 1"), "{health}");
    // How long that recovery took, in whole milliseconds.
    let recover_ms = health
        .split("\"recover_ms\": ")
        .nth(1)
        .and_then(|rest| rest.split('}').next())
        .map(str::parse::<u64>);
    assert!(matches!(recover_ms, Some(Ok(_))), "{health}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_depth_bomb_gets_too_deep_and_the_daemon_keeps_serving() {
    use std::io::Write;
    // 140 KB of `(add1 (add1 … 1))`, 20,000 levels deep: recursing that
    // deep would overflow a worker's stack and abort the whole process.
    let depth = 20_000;
    let bomb = format!("{}1{}", "(add1 ".repeat(depth), ")".repeat(depth));
    let input = format!(
        "{{\"id\": 1, \"analysis\": \"cfa.src\", \"program\": \"{bomb}\"}}\n\
         {{\"id\": 2, \"analysis\": \"cfa.src\", \"program\": \"(add1 1)\"}}\n\
         {{\"cmd\": \"shutdown\"}}\n"
    );
    let mut child = cpsdfad()
        .args(["--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cpsdfad");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("cpsdfad exits");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "clean shutdown: {:?} {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(
        lines[0].contains("\"id\": 1")
            && lines[0].contains("\"status\": \"error\"")
            && lines[0].contains("\"reason\": \"too-deep\""),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].contains("\"id\": 2") && lines[1].contains("\"status\": \"ok\""),
        "{}",
        lines[1]
    );
}

/// The value of `field` in a one-line JSON response (`"field": value`).
fn field<'a>(line: &'a str, field: &str) -> &'a str {
    let key = format!("\"{field}\": ");
    let rest = &line[line
        .find(&key)
        .unwrap_or_else(|| panic!("{field} in {line}"))
        + key.len()..];
    rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim_matches('"')
}

#[test]
fn a_watch_session_answers_constant_edits_warm_and_other_edits_cold() {
    use std::io::Write;
    let base = "(let (c 1) (let (f (lambda (x) x)) (f c)))";
    let constant = "(let (c 2) (let (f (lambda (x) x)) (f c)))";
    let inserted = "(let (e 3) (let (c 2) (let (f (lambda (x) x)) (f c))))";
    let input = format!(
        "{{\"id\": 1, \"session\": 5, \"analysis\": \"cfa.src\", \"program\": \"{base}\"}}\n\
         {{\"id\": 2, \"session\": 5, \"analysis\": \"cfa.src\", \"program\": \"{constant}\"}}\n\
         {{\"id\": 3, \"session\": 5, \"analysis\": \"cfa.src\", \"program\": \"{inserted}\"}}\n\
         {{\"id\": 4, \"analysis\": \"cfa.src\", \"program\": \"{inserted}\"}}\n\
         {{\"cmd\": \"shutdown\"}}\n"
    );
    let mut child = cpsdfad()
        .args(["--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cpsdfad");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("cpsdfad exits");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut lines: Vec<&str> = stdout.lines().collect();
    lines.sort_by_key(|l| field(l, "id").parse::<u64>().expect("numeric id"));
    let cache: Vec<&str> = lines.iter().map(|l| field(l, "cache")).collect();
    assert_eq!(cache, ["miss", "warm", "miss", "hit"], "{stdout}");
    assert_eq!(
        field(lines[2], "answer_digest"),
        field(lines[3], "answer_digest"),
        "the hit serves the answer the cold step committed"
    );
}

#[test]
fn a_daemon_killed_with_spills_in_flight_recovers_only_whole_certified_entries() {
    use cpsdfa_service::proto::{Response, Served, Status};
    use cpsdfa_service::{json, AnalysisService, ServiceConfig};
    use cpsdfa_workloads::families;
    use std::io::{BufRead, BufReader, Write};

    let dir = std::env::temp_dir().join(format!("cpsdfad-cli-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Distinct programs, so every request is a miss that queues a spill.
    let lines: Vec<String> = (4..24)
        .flat_map(|n| {
            [
                ("cfa.src", families::dispatch(n)),
                ("cfa.cps", families::polyvariant(n)),
            ]
        })
        .zip(1..)
        .map(|((analysis, program), id)| {
            format!(
                r#"{{"id": {id}, "analysis": "{analysis}", "program": "{}"}}"#,
                json::escape(&program.to_string())
            )
        })
        .collect();
    let mut child = cpsdfad()
        .args(["--persist-dir", dir.to_str().unwrap()])
        .args(["--workers", "1", "--capacity", "1000000000000"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cpsdfad");
    let mut stdin = child.stdin.take().unwrap();
    let feed = lines.clone();
    let feeder = std::thread::spawn(move || {
        for line in feed {
            // The daemon may be killed before it reads every line.
            if writeln!(stdin, "{line}").is_err() {
                break;
            }
        }
        // Keep stdin open: EOF would start a clean, draining shutdown.
        stdin
    });
    // Kill once half the answers are out, while later spills are queued.
    let mut answers = BufReader::new(child.stdout.take().unwrap()).lines();
    for _ in 0..lines.len() / 2 {
        let line = answers.next().expect("an answer").unwrap();
        assert!(line.contains("\"status\": \"ok\""), "{line}");
    }
    child.kill().expect("SIGKILL the daemon");
    child.wait().expect("reap the daemon");
    drop(feeder.join());

    let service = AnalysisService::new(ServiceConfig {
        workers: 1,
        capacity_charges: u64::MAX / 2,
        persist_dir: Some(dir.clone()),
        recover_certify: usize::MAX,
        ..ServiceConfig::default()
    });
    let rec = *service.recovery().expect("the spill directory reopens");
    assert_eq!((rec.corrupt, rec.stale), (0, 0), "{rec:?}");
    assert_eq!(rec.certified, rec.recovered, "{rec:?}");
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let cold = AnalysisService::new(ServiceConfig {
        workers: 1,
        capacity_charges: u64::MAX / 2,
        ..ServiceConfig::default()
    })
    .run_batch(&refs);
    let reopened = service.run_batch(&refs);
    let _ = std::fs::remove_dir_all(&dir);
    let ok = |resp: &Response| match &resp.status {
        Status::Ok {
            cache,
            answer_digest,
            ..
        } => (cache.clone(), *answer_digest),
        other => panic!("expected ok, got {other:?}"),
    };
    let mut hits = 0;
    for (after, before) in reopened.iter().zip(&cold) {
        let (cache, digest) = ok(&after.response);
        hits += u64::from(cache == Served::Hit);
        assert_eq!(digest, ok(&before.response).1, "id {}", after.response.id);
    }
    assert_eq!(hits, rec.recovered, "every recovered entry serves a hit");
}
