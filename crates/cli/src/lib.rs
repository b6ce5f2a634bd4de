//! Library backing the `automon` command-line tool: [`dispatch`] is what
//! `main` calls, and `automon help` ([`usage`]) lists the subcommands.
//!
//! Argument parsing is hand-rolled (the project's dependency policy
//! admits no CLI crates); [`Args`] implements the small `--key value`
//! grammar the subcommands share.

mod args;
mod csvio;
mod netcmd;
mod run;
mod trace;

pub use args::{Args, CliError, Flag};
pub use csvio::{parse_csv_updates, render_estimates};
pub use netcmd::run_net_smoke;
pub use run::{build_function, run_monitor, run_simulate, run_tune};

/// A subcommand: the words that select it, the flag groups it admits and
/// the function that runs it.
type Subcommand = (&'static str, &'static [&'static [Flag]], fn(&Args) -> Result<String, CliError>);

/// [`dispatch`] and the `USAGE:` synopsis both read this table, so help
/// and parser cannot drift.
const SUBCOMMANDS: &[Subcommand] = &[
    ("simulate", &[run::SIMULATE_FLAGS, run::FAULT_FLAGS], run_simulate),
    ("monitor", &[run::MONITOR_FLAGS], run_monitor),
    ("tune", &[run::TUNE_FLAGS], run_tune),
    ("net-smoke", &[netcmd::NET_SMOKE_FLAGS, run::FAULT_FLAGS], run_net_smoke),
    ("trace summarize", &[trace::SUMMARIZE_FLAGS], trace::summarize),
    ("trace diff", &[trace::DIFF_FLAGS], trace::diff),
];

/// Entry point shared by `main.rs` and the tests.
///
/// Any flag the selected subcommand does not declare is rejected here,
/// before anything runs. Returns the text to print on success.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    for (name, flags, run) in SUBCOMMANDS {
        let words = name.split(' ').count();
        if name.split(' ').eq(argv.iter().take(words).map(String::as_str)) {
            return run(&Args::parse_known(&argv[words..], flags)?);
        }
    }
    match argv.first().map(String::as_str) {
        Some("help") | None => Ok(usage()),
        Some("trace") => Err(CliError::new(match argv.get(1) {
            Some(other) => format!("unknown trace command `{other}` (summarize | diff)"),
            None => "usage: automon trace summarize --input FILE\n\
                     \x20      automon trace diff --left FILE --right FILE"
                .to_string(),
        })),
        Some(other) => Err(CliError::new(format!(
            "unknown subcommand `{other}`\n\n{}",
            usage()
        ))),
    }
}

/// The `USAGE:` block, rendered from [`SUBCOMMANDS`]: one entry per
/// subcommand, its flags wrapped at 72 columns under a hanging indent.
fn synopsis() -> String {
    let mut out = String::from("USAGE:\n");
    for (name, flags, _) in SUBCOMMANDS {
        let mut line = format!("    automon {name}");
        for (flag, value) in flags.iter().copied().flatten() {
            let token = match *value {
                "" => format!("[--{flag}]"),
                required if required.starts_with('<') => format!("--{flag} {required}"),
                optional => format!("[--{flag} {optional}]"),
            };
            if line.len() + 1 + token.len() > 72 {
                out += &format!("{line}\n");
                line = " ".repeat(20);
            }
            line += &format!(" {token}");
        }
        out += &format!("{line}\n");
    }
    out + "    automon help\n"
}

/// The help text.
pub fn usage() -> String {
    format!(
        "automon — automatic distributed monitoring of arbitrary functions\n\n{}\n{USAGE_SECTIONS}",
        synopsis()
    )
}

/// Everything in the help text below the generated synopsis.
const USAGE_SECTIONS: &str = "\
FUNCTIONS (built-in):
    inner-product | quadratic | kld | variance | rozenbrock | mlp
    (dimension via --dim where applicable)

BASELINES (simulate only, repeatable):
    centralization | periodic:<P>

CHAOS (the fault flags of every subcommand build one schedule, DESIGN.md
§3.8; on `simulate` any of them switches to the fault-injecting fabric
with retransmission, eviction, and rejoin enabled):
    --chaos-seed S      RNG seed; same seed replays the same faults
    --drop-rate P       drop each frame with probability P in [0, 1]
    --crash-node SPEC   `node:at[:restart]`, repeatable
    --partition SPEC    `n1[,n2,…]:from:until` (until exclusive), repeatable
    --duplicate-rate P, --reorder-rate P, --delay-rate P
                        the rest of the per-frame ladder (rates sum to ≤ 1;
                        --max-delay-rounds N bounds a delay, default 3)
    A runner refuses, by name, the parts of a schedule it cannot execute
    (real sockets run none), and invalid rates, rounds or ids are errors.

DURABILITY (simulate only; docs/DURABILITY.md):
    --crash-coordinator R   crash the coordinator at round R and rebuild
                            it from the durable store (WAL + snapshot),
                            repeatable; the recovery full sync is charged
                            to the `recovery` ledger cause
    --wal-dir DIR           persist the store in real files under DIR
                            (default: deterministic in-memory backend;
                            both replay bit-identically under a seed)
    --snapshot-every N      checkpoint cadence in rounds (default 16);
                            mid-sync requests defer to the next quiescent
                            round instead of being skipped

FLEET (simulate only; two-tier sharded hierarchy, DESIGN.md §3.14):
    --fleet                 shard the streams over leaf coordinators and
                            monitor f of the global average at a root
                            coordinator that treats each leaf's scaled
                            partial mean as one node stream; shard-local
                            violations resolve intra-shard and reach the
                            root only when the shard aggregate moves
    --shards S              leaf coordinators (default 8); requires --fleet
    --leaf-epsilon-frac F   fraction of ε given to the leaf tier, in
                            (0, 1) (default 0.5); the root gets the rest
    --crash-node SPEC       `node:at[:restart]`, repeatable — here the
                            node is a global stream id
    --crash-leaf SPEC       `leaf:at`, repeatable — permanently crash a
                            leaf coordinator; the next alive leaf adopts
                            its surviving streams (shard rebalance)
    The fleet runs the node- and leaf-crash parts of the schedule and
    refuses the others (--drop-rate, --partition, --crash-coordinator);
    --wal-dir, --snapshot-every and --baseline are flat-runner features
    and are rejected with --fleet.

OBSERVABILITY (simulate only):
    --json              print the run statistics as one JSON object
                        (chaos runs add a `quiesced` field)
    --metrics-out FILE  dump final metrics in Prometheus text exposition
    --trace-out FILE    dump the structured event trace as JSONL; events
                        carry logical round/op counters, so the same
                        seed reproduces the file byte for byte
    --serve-metrics ADDR  serve live metrics at http://ADDR/metrics
                        while the run executes (e.g. 127.0.0.1:9100)

NET BACKENDS (net-smoke; DESIGN.md §3.15) — three links of the one round
driver:
    --net-backend threaded  real loopback sockets, blocking TCP transport
                            (reader thread per node) at the coordinator
    --net-backend reactor   real loopback sockets, epoll event loop run
                            by the caller: inline writev, coalesced
                            reads, bounded outbound queues (default)
    --net-backend sim       the reactor over a simulated poller: seeded
                            byte chunking, chaos flags inject faults at
                            the frame boundary, same seed replays the
                            run byte for byte
    Output is one JSON object: `stats` (the same schema as `simulate
    --json`, ledger included; identical across backends for a given
    --seed) and `transport` (syscalls, timing — backend-specific).
    --trace-out works on every backend and writes the standard
    telemetry trace (`trace summarize|diff` read it; fault-free, the
    three files are equal). Only the sim backend runs frame faults (the
    socket backends refuse a schedule that has any), and
    --max-delay-rounds requires --delay-rate. A socket failure or a
    frame missing after 20 s exits non-zero naming the stage.

TRACE ANALYSIS (offline, over --trace-out files):
    trace summarize     span tree, per-span durations in deterministic
                        ops, and the communication ledger: messages and
                        bytes per protocol cause with a bytes-per-update
                        column
    trace diff          first-divergence finder for the determinism
                        contract; reports the diverging seq with its
                        enclosing span path and exits non-zero

CSV INPUT (monitor, tune): header-free rows `round,node,x1,...,xd`;
rounds must be non-decreasing, nodes in 0..N. One protocol round per
distinct round label, for both subcommands.

NEIGHBORHOOD TUNING (paper Algorithm 2): `tune` brackets and grid-searches
the neighborhood size r over a CSV prefix and prints the violation grid.
Each candidate r is scored by running the protocol over the prefix exactly
as `monitor` would run it at that r: same rounds, same (adaptive)
neighborhood mode. `simulate` does the same on the first tenth of every
run of a non-constant-Hessian function, fault flags or not.

EXAMPLES:
    automon simulate --function kld --epsilon 0.05 --nodes 12 --rounds 800
    automon simulate --function quadratic --baseline periodic:10 \\
                     --baseline centralization
    automon monitor --function inner-product --dim 4 --nodes 3 \\
                    --input updates.csv --epsilon 0.1
    automon tune --function kld --nodes 12 --input prefix.csv
    automon simulate --function inner-product --rounds 200 \\
                     --chaos-seed 7 --drop-rate 0.1 --crash-node 2:50:120
    automon simulate --function variance --nodes 1000 --rounds 300 \\
                     --fleet --shards 32 --crash-leaf 3:100";

/// What every test module of this crate shares: the tests enter where
/// `main` enters.
#[cfg(test)]
pub(crate) mod testkit {
    use serde::Value;

    /// [`crate::dispatch`] on `argv`, subcommand first.
    pub fn cli(argv: &[&str]) -> Result<String, crate::CliError> {
        crate::dispatch(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    /// `base` followed by `extra`, for tests that vary a tail of flags.
    pub fn with<'a>(base: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
        [base, extra].concat()
    }

    /// The named field of a `--json` object.
    pub fn field(v: &Value, key: &str) -> Value {
        Value::get_field(v.as_map().expect("object"), key).clone()
    }

    /// The `ledger` rows of a `--json` stats object as `(cause, msgs, bytes)`.
    pub fn ledger(stats: &Value) -> Vec<(String, u64, u64)> {
        let Value::Seq(rows) = field(stats, "ledger") else { panic!("no ledger: {stats:?}") };
        rows.iter()
            .map(|row| match (field(row, "cause"), field(row, "msgs"), field(row, "bytes")) {
                (Value::Str(cause), Value::UInt(msgs), Value::UInt(bytes)) => (cause, msgs, bytes),
                other => panic!("ledger row {other:?}"),
            })
            .collect()
    }

    /// The ledger sums exactly to the run's `messages` / `payload_bytes`.
    pub fn assert_ledger_conserves(stats: &Value) {
        let rows = ledger(stats);
        assert!(!rows.is_empty(), "{stats:?}");
        let msgs: u64 = rows.iter().map(|row| row.1).sum();
        let bytes: u64 = rows.iter().map(|row| row.2).sum();
        assert_eq!(Value::UInt(msgs), field(stats, "messages"), "{rows:?}");
        assert_eq!(Value::UInt(bytes), field(stats, "payload_bytes"), "{rows:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{cli, with};

    #[test]
    fn help_and_unknown_commands() {
        let help = cli(&["help"]).unwrap();
        assert_eq!(help, cli(&[]).unwrap());
        // The synopsis is rendered from the declarations `dispatch` admits.
        assert!(help.contains("USAGE:\n    automon simulate --function <NAME> [--epsilon E]"), "{help}");
        assert!(help.contains("\n    automon trace diff --left <A.jsonl> --right <B.jsonl>\n"), "{help}");
        for unknown in ["frobnicate", "spectral-smoke"] {
            let err = cli(&[unknown]).unwrap_err();
            assert!(err.to_string().contains("unknown subcommand"), "{err}");
        }
    }

    // Carries the flag half of ci.sh step 7 (retired).
    #[test]
    fn unknown_flags_are_rejected_before_running() {
        let err = cli(&["simulate", "--function", "variance", "--rounds", "50", "--bogus-flag", "7"])
            .unwrap_err();
        assert!(err.to_string().contains("--bogus-flag"), "{err}");
        let err = cli(&["trace", "diff", "--left", "a", "--rihgt", "b"]).unwrap_err();
        assert!(err.to_string().contains("--rihgt"), "{err}");
        // A retired knob is a flag like any other unknown one.
        for (subcommand, base) in [
            ("simulate", &["--function", "rozenbrock", "--rounds", "30"][..]),
            ("monitor", &["--function", "rozenbrock", "--nodes", "2", "--input", "x.csv"]),
        ] {
            for retired in [
                &["--decomp-cache"][..],
                &["--decomp-cache-capacity", "8"],
                &["--decomp-cache-warm"],
                &["--parallelism", "2"],
                &["--spectral-backend", "ql"],
            ] {
                let err = cli(&with(&with(&[subcommand], base), retired)).unwrap_err();
                assert!(err.to_string().contains(&format!("unknown flag `{}`", retired[0])), "{err}");
            }
        }
    }

    /// One validator behind one parser: an invalid schedule ends in the
    /// same `CliError` on every subcommand that takes the flag — never in
    /// a panic, which `net-smoke --net-backend sim` used to do on rows 1–3.
    /// Carries ci.sh step 12(c) (retired) in row 1.
    #[test]
    fn invalid_fault_schedules_are_cli_errors_on_every_subcommand() {
        let simulate = &["simulate", "--function", "inner-product", "--nodes", "12", "--rounds", "20"];
        let fleet = &[
            "simulate", "--function", "inner-product", "--nodes", "12", "--rounds", "20",
            "--fleet", "--shards", "4",
        ];
        let net_sim = &["net-smoke", "--net-backend", "sim", "--rounds", "20"];
        /// The flags, the subcommands that take them, the error.
        type Row<'a> = (&'a [&'a str], &'a [&'a [&'a str]], &'a str);
        let rows: [Row; 5] = [
            (
                &["--drop-rate", "2"],
                &[simulate, net_sim],
                "drop rate must be in [0, 1], got 2",
            ),
            (
                &["--drop-rate", "0.7", "--duplicate-rate", "0.7"],
                &[simulate, net_sim],
                "fault rates must sum to at most 1, got 1.4",
            ),
            (
                &["--delay-rate", "0.2", "--max-delay-rounds", "0"],
                &[simulate, net_sim],
                "a delay rate needs a delay bound of at least 1 round",
            ),
            (&["--crash-leaf", "9:3"], &[fleet], "leaf 9 out of range (shards = 4)"),
            (
                &["--crash-node", "1:5:3"],
                &[simulate, fleet],
                "node 1 must restart after its crash at round 5, not at round 3",
            ),
        ];
        for (flags, subcommands, message) in rows {
            for base in subcommands {
                let argv = with(base, flags);
                let err = cli(&argv).expect_err("invalid schedule");
                assert_eq!(err.to_string(), message, "{argv:?}");
            }
        }
    }

    #[test]
    fn simulate_inner_product_end_to_end() {
        let out = cli(&[
            "simulate", "--function", "inner-product", "--dim", "4", "--nodes", "3", "--rounds",
            "120", "--epsilon", "0.2", "--baseline", "centralization", "--baseline", "periodic:10",
        ])
        .unwrap();
        assert!(out.contains("AutoMon"), "{out}");
        assert!(out.contains("Centralization"), "{out}");
        assert!(out.contains("Periodic(10)"), "{out}");
        assert!(out.contains("max error"), "{out}");
    }

    #[test]
    fn simulate_rejects_bad_function() {
        let err = cli(&["simulate", "--function", "nope"]).unwrap_err();
        assert!(err.to_string().contains("unknown function"));
    }
}
