//! Golden output for observed figure runs.
//!
//! Figures 13 and 14 at 20,000 events per workload (seed 42), with an
//! epoch of 5,000 and a 4,096-event flight recorder, must write exactly
//! the telemetry and trace bytes pinned below: an FNV-1a digest of
//! `TELEMETRY_sweep.json` and of every `trace_*.bin`. The table was
//! recorded from the engines before they were folded into one event
//! loop per model, so it holds the observed output of today's loop to
//! the bytes the earlier per-event loops wrote.
//!
//! This is the only test in its binary: the epoch and trace overrides
//! are process-global.

use domino_repro::sim::figures::{fig13, fig14, Scale};
use domino_repro::sim::observe;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// File name and digest of every file an observed fig13 + fig14 sweep
/// writes, in the order the collectors drain them.
const GOLDEN: &[(&str, u64)] = &[
    ("TELEMETRY_sweep.json", 0x1f41907558e8e344),
    ("trace_data_serving_baseline_timing.bin", 0x40721d71f2db78f8),
    ("trace_data_serving_digram_coverage.bin", 0xe1817f81b8292595),
    ("trace_data_serving_digram_timing.bin", 0x53972e7f46615439),
    ("trace_data_serving_domino_coverage.bin", 0x29085a346a0ef83c),
    ("trace_data_serving_domino_timing.bin", 0x7bc7d07a098351e2),
    ("trace_data_serving_isb_coverage.bin", 0x4a6ea5001b35a387),
    ("trace_data_serving_isb_timing.bin", 0x27c3dcfe05743614),
    ("trace_data_serving_stms_coverage.bin", 0x6cce12281867eb2d),
    ("trace_data_serving_stms_timing.bin", 0x748f39767630bef6),
    ("trace_data_serving_vldp_coverage.bin", 0xeab8deafd8a95ff6),
    ("trace_data_serving_vldp_timing.bin", 0x423e8e5599930afe),
    ("trace_mapreduce_c_baseline_timing.bin", 0xe8758aa4a501d6b2),
    ("trace_mapreduce_c_digram_coverage.bin", 0x3baec51cb44f8c25),
    ("trace_mapreduce_c_digram_timing.bin", 0x578b996c51e01efb),
    ("trace_mapreduce_c_domino_coverage.bin", 0x4d5972c92b0db2b1),
    ("trace_mapreduce_c_domino_timing.bin", 0x6bd075d0bd5b800e),
    ("trace_mapreduce_c_isb_coverage.bin", 0x2c43d1c2a9c0e139),
    ("trace_mapreduce_c_isb_timing.bin", 0x6a82ea2e0f476ec9),
    ("trace_mapreduce_c_stms_coverage.bin", 0xbb5547298d1b9ca6),
    ("trace_mapreduce_c_stms_timing.bin", 0xce6c0310e385ce2e),
    ("trace_mapreduce_c_vldp_coverage.bin", 0x909e5d105cd4227f),
    ("trace_mapreduce_c_vldp_timing.bin", 0x9d89f619a372b3d8),
    ("trace_mapreduce_w_baseline_timing.bin", 0x9189be6afd93c635),
    ("trace_mapreduce_w_digram_coverage.bin", 0x91c0d44c59ce1a79),
    ("trace_mapreduce_w_digram_timing.bin", 0xbe956ca86da6ffb6),
    ("trace_mapreduce_w_domino_coverage.bin", 0x06c0e102a17f205a),
    ("trace_mapreduce_w_domino_timing.bin", 0x6eb373aa36a63e81),
    ("trace_mapreduce_w_isb_coverage.bin", 0x3c05536931c4b343),
    ("trace_mapreduce_w_isb_timing.bin", 0x70d23ddbd221a933),
    ("trace_mapreduce_w_stms_coverage.bin", 0x459eb95c89a4729c),
    ("trace_mapreduce_w_stms_timing.bin", 0x0b9e12c1a2dea45e),
    ("trace_mapreduce_w_vldp_coverage.bin", 0xc13a0fca8bbdf59f),
    ("trace_mapreduce_w_vldp_timing.bin", 0x9c428b5ce77cd67f),
    (
        "trace_media_streaming_baseline_timing.bin",
        0x756725904a662f60,
    ),
    (
        "trace_media_streaming_digram_coverage.bin",
        0xfb5fe668cc3ac832,
    ),
    (
        "trace_media_streaming_digram_timing.bin",
        0xdb9523263e8d4d39,
    ),
    (
        "trace_media_streaming_domino_coverage.bin",
        0x0df5318d1726d834,
    ),
    (
        "trace_media_streaming_domino_timing.bin",
        0xae661cb4a30a3367,
    ),
    ("trace_media_streaming_isb_coverage.bin", 0x09888669b76581ee),
    ("trace_media_streaming_isb_timing.bin", 0xf8e963b99c309f35),
    (
        "trace_media_streaming_stms_coverage.bin",
        0x0cbe6fcca8be209d,
    ),
    ("trace_media_streaming_stms_timing.bin", 0x1cd9a8d373aa912f),
    (
        "trace_media_streaming_vldp_coverage.bin",
        0xf435c8d2e0957229,
    ),
    ("trace_media_streaming_vldp_timing.bin", 0xa8c02c5fa7ed7d08),
    ("trace_oltp_baseline_timing.bin", 0x687e7af2daaffe20),
    ("trace_oltp_digram_coverage.bin", 0xe2bce234cd29aeb2),
    ("trace_oltp_digram_timing.bin", 0xceefe6d0200a2e69),
    ("trace_oltp_domino_coverage.bin", 0xbb06b835b13be988),
    ("trace_oltp_domino_timing.bin", 0xab3648efe3a6f37e),
    ("trace_oltp_isb_coverage.bin", 0x43c056d4319a11ef),
    ("trace_oltp_isb_timing.bin", 0x3eba12e7d5efa9e7),
    ("trace_oltp_stms_coverage.bin", 0x0ebed67769aac1d4),
    ("trace_oltp_stms_timing.bin", 0x5b1617677e87f1aa),
    ("trace_oltp_vldp_coverage.bin", 0x07474bc4fb7d4125),
    ("trace_oltp_vldp_timing.bin", 0xbe2bd0174db899ef),
    ("trace_sat_solver_baseline_timing.bin", 0x6813e9a2bb10d25a),
    ("trace_sat_solver_digram_coverage.bin", 0x7ca28b123f102616),
    ("trace_sat_solver_digram_timing.bin", 0x80b69ab20aefe385),
    ("trace_sat_solver_domino_coverage.bin", 0x99274ca3ae30c26d),
    ("trace_sat_solver_domino_timing.bin", 0x6263c6a68ae3d788),
    ("trace_sat_solver_isb_coverage.bin", 0xf41e43bf90b818e2),
    ("trace_sat_solver_isb_timing.bin", 0x14957dc30cc0a02f),
    ("trace_sat_solver_stms_coverage.bin", 0x21a21740e82dad6c),
    ("trace_sat_solver_stms_timing.bin", 0x9dbe86c799c688f0),
    ("trace_sat_solver_vldp_coverage.bin", 0x1a8a87f1dc932e72),
    ("trace_sat_solver_vldp_timing.bin", 0x673af3e6afde991c),
    ("trace_web_apache_baseline_timing.bin", 0xf4329091ff12620a),
    ("trace_web_apache_digram_coverage.bin", 0x5a4b2b82d4a7a277),
    ("trace_web_apache_digram_timing.bin", 0xb3c102910fca5098),
    ("trace_web_apache_domino_coverage.bin", 0xd486d94ddde4723e),
    ("trace_web_apache_domino_timing.bin", 0x936ed0c39d035562),
    ("trace_web_apache_isb_coverage.bin", 0x61b4d1b31d29fd7c),
    ("trace_web_apache_isb_timing.bin", 0x5a1e04176b9bbfaa),
    ("trace_web_apache_stms_coverage.bin", 0x5ed06b1b33a6bca9),
    ("trace_web_apache_stms_timing.bin", 0xd177ad17644a99ee),
    ("trace_web_apache_vldp_coverage.bin", 0x1b2eff10c724ee5c),
    ("trace_web_apache_vldp_timing.bin", 0xda2d5b4a5a241e69),
    ("trace_web_search_baseline_timing.bin", 0x0783ee00d56a44cf),
    ("trace_web_search_digram_coverage.bin", 0x3ea7984d2feefc07),
    ("trace_web_search_digram_timing.bin", 0xc1724f33132e57f1),
    ("trace_web_search_domino_coverage.bin", 0x7a06933a44a965d4),
    ("trace_web_search_domino_timing.bin", 0xf9c487d7738f9d83),
    ("trace_web_search_isb_coverage.bin", 0xf9008d6b4c5d56ba),
    ("trace_web_search_isb_timing.bin", 0x43a813d9e2d7b657),
    ("trace_web_search_stms_coverage.bin", 0x83a48b7686116e3a),
    ("trace_web_search_stms_timing.bin", 0x9ae5946211ebd01c),
    ("trace_web_search_vldp_coverage.bin", 0x4477260ce9303768),
    ("trace_web_search_vldp_timing.bin", 0x865013aaa74c08d6),
    ("trace_web_zeus_baseline_timing.bin", 0x14497fc99f4ffd6b),
    ("trace_web_zeus_digram_coverage.bin", 0x049f0f7497e47ec7),
    ("trace_web_zeus_digram_timing.bin", 0x2e6bd820c161e677),
    ("trace_web_zeus_domino_coverage.bin", 0xebd2433fa93e927d),
    ("trace_web_zeus_domino_timing.bin", 0xbf371b03afe7eba6),
    ("trace_web_zeus_isb_coverage.bin", 0x0d6bd0aa5977f2e0),
    ("trace_web_zeus_isb_timing.bin", 0x6ebf148985678d7c),
    ("trace_web_zeus_stms_coverage.bin", 0x4d75a77ddf3668df),
    ("trace_web_zeus_stms_timing.bin", 0xb2c3a379fc7247dd),
    ("trace_web_zeus_vldp_coverage.bin", 0x1c45cebd5401f495),
    ("trace_web_zeus_vldp_timing.bin", 0x352235498bb14606),
];

#[test]
fn observed_fig13_and_fig14_match_the_recorded_bytes() {
    observe::set_epoch_override(Some(5_000));
    observe::set_trace_override(Some(4_096));
    let scale = Scale {
        events: 20_000,
        seed: 42,
    };
    fig13(&scale);
    fig14(&scale);
    let reports = observe::drain();
    let traces = observe::drain_traces();
    observe::set_epoch_override(None);
    observe::set_trace_override(None);

    let mut got = vec![(
        "TELEMETRY_sweep.json".to_string(),
        fnv1a(observe::aggregate_json(&reports).as_bytes()),
    )];
    got.extend(traces.iter().map(|t| {
        (
            observe::trace_filename(&t.meta),
            fnv1a(&t.recorder.to_bytes(&t.meta)),
        )
    }));
    let table: String = got
        .iter()
        .map(|(name, digest)| format!("    (\"{name}\", {digest:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert!(
        got == want,
        "observed output drifted from the recorded bytes; this run wrote:\n{table}"
    );
}
