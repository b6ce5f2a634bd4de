//! Library backing the `automon` command-line tool.
//!
//! Two subcommands:
//!
//! * `automon simulate` — run a built-in evaluation workload (the paper's
//!   functions and datasets) and print the communication/error summary.
//! * `automon monitor` — run the monitoring protocol over a CSV stream of
//!   local-vector updates (`round,node,x1,...,xd`) with a chosen built-in
//!   function, writing per-round estimates.
//!
//! Argument parsing is hand-rolled (the project's dependency policy
//! admits no CLI crates); [`Args`] implements the small `--key value`
//! grammar both subcommands share.

mod args;
mod csvio;
mod netcmd;
mod run;
mod trace;

pub use args::{Args, CliError};
pub use csvio::{parse_csv_updates, render_estimates};
pub use netcmd::run_net_smoke;
pub use run::{build_function, run_monitor, run_simulate, run_spectral_smoke, run_tune};
pub use trace::run_trace;

/// Entry point shared by `main.rs` and the tests.
///
/// Each subcommand declares the flags it reads next to its `run_*`;
/// any other flag is rejected here, before anything runs. Returns the
/// text to print on success.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    let known = |flags| Args::parse_known(&argv[1..], flags);
    match argv.first().map(String::as_str) {
        Some("simulate") => run_simulate(&known(run::SIMULATE_FLAGS)?),
        Some("monitor") => run_monitor(&known(run::MONITOR_FLAGS)?),
        Some("tune") => run_tune(&known(run::TUNE_FLAGS)?),
        Some("spectral-smoke") => run_spectral_smoke(&known(run::SPECTRAL_SMOKE_FLAGS)?),
        Some("net-smoke") => run_net_smoke(&known(netcmd::NET_SMOKE_FLAGS)?),
        Some("trace") => run_trace(&argv[1..]),
        Some("help") | None => Ok(usage().to_string()),
        Some(other) => Err(CliError::new(format!(
            "unknown subcommand `{other}`\n\n{}",
            usage()
        ))),
    }
}

/// The help text.
pub fn usage() -> &'static str {
    "automon — automatic distributed monitoring of arbitrary functions

USAGE:
    automon simulate --function <NAME> [--epsilon E] [--nodes N]
                     [--rounds R] [--dim D] [--seed S] [--baseline SPEC]
                     [--spectral-backend B]
                     [--chaos-seed S] [--drop-rate P]
                     [--crash-node SPEC] [--partition SPEC]
                     [--crash-coordinator R] [--wal-dir DIR]
                     [--snapshot-every N] [--json]
                     [--metrics-out FILE] [--trace-out FILE]
                     [--serve-metrics ADDR] [--decomp-cache]
                     [--decomp-cache-capacity N]
                     [--fleet] [--shards S] [--leaf-epsilon-frac F]
                     [--crash-leaf SPEC]
    automon monitor  --function <NAME> --input <FILE.csv> --nodes N
                     [--epsilon E] [--dim D] [--output FILE.csv]
                     [--spectral-backend B]
                     [--decomp-cache] [--decomp-cache-capacity N]
    automon tune     --function <NAME> --input <FILE.csv> --nodes N
                     [--epsilon E]
    automon spectral-smoke [--dim D] [--seed S] [--tol T]
    automon net-smoke [--net-backend B] [--nodes N] [--rounds R]
                     [--dim D] [--seed S] [--epsilon E] [--function NAME]
                     [--chaos-seed S] [--drop-rate P] [--duplicate-rate P]
                     [--reorder-rate P] [--delay-rate P]
                     [--max-delay-rounds N] [--trace-out FILE]
    automon trace summarize --input FILE.jsonl
    automon trace diff --left A.jsonl --right B.jsonl
    automon help

FUNCTIONS (built-in):
    inner-product | quadratic | kld | variance | rozenbrock | mlp
    (dimension via --dim where applicable)

BASELINES (simulate only, repeatable):
    centralization | periodic:<P>

SPECTRAL BACKEND:
    --spectral-backend ql (default) uses the two-tier kernel:
    Householder + implicit-shift QL for full decompositions and
    matrix-free Lanczos for the ADCD-X extreme-eigenvalue search.
    `jacobi` is the legacy cyclic-Jacobi path (rollback switch).
    `automon spectral-smoke` cross-checks the three kernels on one
    deterministic matrix and exits non-zero on disagreement.

CHAOS (the fault flags of every subcommand build one schedule, DESIGN.md
§3.8; on `simulate` any of them switches to the fault-injecting fabric
with retransmission, eviction, and rejoin enabled):
    --chaos-seed S      RNG seed; same seed replays the same faults
    --drop-rate P       drop each frame with probability P in [0, 1]
    --crash-node SPEC   `node:at[:restart]`, repeatable
    --partition SPEC    `n1[,n2,…]:from:until` (until exclusive), repeatable
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

DECOMPOSITION CACHE (off by default; DESIGN.md §3.11):
    --decomp-cache              memoize full-sync decompositions at the
                                coordinator. A hit requires bitwise-equal
                                inputs, so output is identical to a
                                cache-off run; it pays off only when
                                reference points recur exactly
    --decomp-cache-capacity N   max resident entries (default 64);
                                eviction is segmented LRU

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
                     --fleet --shards 32 --crash-leaf 3:100"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(dispatch(&sv(&["help"])).unwrap().contains("USAGE"));
        assert!(dispatch(&[]).unwrap().contains("USAGE"));
        let err = dispatch(&sv(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown subcommand"));
    }

    /// Help and parser cannot drift: every subcommand's declared flag
    /// list is exactly the `--flag` tokens of its USAGE synopsis.
    #[test]
    fn declared_flags_match_the_usage_synopsis() {
        let text = usage();
        let start = text.find("USAGE:\n").expect("USAGE block") + "USAGE:\n".len();
        let block = &text[start..start + text[start..].find("\n\n").expect("blank line")];
        let mut synopsis = std::collections::BTreeMap::new();
        for entry in block.split("    automon ").skip(1) {
            // Brackets off; `--` tokens are the flags, whatever precedes
            // the first one is the subcommand name.
            let tokens: Vec<&str> = entry
                .split_whitespace()
                .map(|t| t.trim_matches(|c| c == '[' || c == ']'))
                .collect();
            let name_len = tokens
                .iter()
                .position(|t| t.starts_with("--"))
                .unwrap_or(tokens.len());
            let mut flags: Vec<&str> = tokens.iter().filter_map(|t| t.strip_prefix("--")).collect();
            flags.sort_unstable();
            synopsis.insert(tokens[..name_len].join(" "), flags);
        }
        let declared = [
            ("simulate", run::SIMULATE_FLAGS),
            ("monitor", run::MONITOR_FLAGS),
            ("tune", run::TUNE_FLAGS),
            ("spectral-smoke", run::SPECTRAL_SMOKE_FLAGS),
            ("net-smoke", netcmd::NET_SMOKE_FLAGS),
            ("trace summarize", trace::SUMMARIZE_FLAGS),
            ("trace diff", trace::DIFF_FLAGS),
        ];
        assert_eq!(synopsis.remove("help"), Some(vec![]));
        for (name, flags) in declared {
            let mut flags = flags.to_vec();
            flags.sort_unstable();
            assert_eq!(synopsis.remove(name), Some(flags), "`automon {name}`");
        }
        assert!(synopsis.is_empty(), "synopsis without a flag list: {synopsis:?}");
    }

    #[test]
    fn unknown_flags_are_rejected_before_running() {
        let err = dispatch(&sv(&[
            "simulate", "--function", "variance", "--rounds", "50", "--bogus-flag", "7",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--bogus-flag"), "{err}");
        let err = dispatch(&sv(&["trace", "diff", "--left", "a", "--rihgt", "b"])).unwrap_err();
        assert!(err.to_string().contains("--rihgt"), "{err}");
        // Retired knobs fail with a pointer, not a silent default.
        for retired in [
            &["--decomp-cache", "arc"][..],
            &["--decomp-cache-warm"],
            &["--parallelism", "2"],
        ] {
            let mut argv = sv(&["simulate", "--function", "rozenbrock", "--rounds", "30"]);
            argv.extend(sv(retired));
            let err = dispatch(&argv).unwrap_err();
            assert!(err.to_string().contains("no longer selectable"), "{err}");
        }
    }

    /// One validator behind one parser: an invalid schedule ends in the
    /// same `CliError` on every subcommand that takes the flag — never in
    /// a panic, which `net-smoke --net-backend sim` used to do on rows 1–3.
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
                &[net_sim],
                "fault rates must sum to at most 1, got 1.4",
            ),
            (
                &["--delay-rate", "0.2", "--max-delay-rounds", "0"],
                &[net_sim],
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
                let argv: Vec<&str> = base.iter().chain(flags).copied().collect();
                let err = dispatch(&sv(&argv)).expect_err("invalid schedule");
                assert_eq!(err.to_string(), message, "{argv:?}");
            }
        }
    }

    #[test]
    fn simulate_inner_product_end_to_end() {
        let out = dispatch(&sv(&[
            "simulate",
            "--function",
            "inner-product",
            "--dim",
            "4",
            "--nodes",
            "3",
            "--rounds",
            "120",
            "--epsilon",
            "0.2",
            "--baseline",
            "centralization",
            "--baseline",
            "periodic:10",
        ]))
        .unwrap();
        assert!(out.contains("AutoMon"), "{out}");
        assert!(out.contains("Centralization"), "{out}");
        assert!(out.contains("Periodic(10)"), "{out}");
        assert!(out.contains("max error"), "{out}");
    }

    #[test]
    fn simulate_rejects_bad_function() {
        let err = dispatch(&sv(&["simulate", "--function", "nope"])).unwrap_err();
        assert!(err.to_string().contains("unknown function"));
    }
}
