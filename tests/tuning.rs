//! Cross-crate properties of the tuned selection policy: monotone picks,
//! the paper's §V regimes at its figure sizes, a clean fallback to the
//! builtin table on bad overrides, and the §IV-C non-contiguous rule that
//! no table may override.

use std::sync::Mutex;

use bgp_collectives::machine::{MachineConfig, OpMode};
use bgp_collectives::mpi::allreduce::AllreduceAlgorithm;
use bgp_collectives::mpi::tune::{
    PolicySource, Region, SelectionPolicy, ShapeEntry, TuningTable, BUILTIN_TABLE_JSON, TABLE_ENV,
};
use bgp_collectives::mpi::{BcastAlgorithm, Datatype, Mpi};

/// `BGP_TUNE_TABLE` is process-global while the test harness is threaded:
/// every test that sets or depends on the variable holds this lock.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Tuned selection never flaps: once an algorithm is left behind on the
/// size axis it is never selected again, on every table shape.
#[test]
fn tuned_selection_is_monotone_in_size() {
    let policy = SelectionPolicy::builtin();
    for &(nodes, mode) in &[
        (64u32, OpMode::Quad),
        (512, OpMode::Quad),
        (2048, OpMode::Quad),
        (64, OpMode::Smp),
        (2048, OpMode::Smp),
        (2048, OpMode::Dual),
    ] {
        let cfg = MachineConfig::with_nodes(nodes, mode);
        let mut seen: Vec<BcastAlgorithm> = Vec::new();
        for shift in 6..=24 {
            let alg = policy.select_bcast(&cfg, 1u64 << shift);
            match seen.last() {
                Some(&last) if last == alg => {}
                _ => {
                    assert!(
                        !seen.contains(&alg),
                        "{alg:?} re-selected at 2^{shift} B on {nodes} x {mode:?}"
                    );
                    seen.push(alg);
                }
            }
        }
    }
}

/// At the characteristic sizes of the paper's figures the tuned table
/// picks what the paper's §V crossovers (8 KiB / 128 KiB) pick on
/// two_racks_quad: fig6's short messages ride the shmem tree, fig7's medium
/// messages the core-specialized Shaddr tree, fig10's large messages the
/// multi-color torus.
#[test]
fn tuned_agrees_with_static_at_figure_sizes() {
    let policy = SelectionPolicy::builtin();
    let cfg = MachineConfig::two_racks_quad();
    for (bytes, expect) in [
        (1024, BcastAlgorithm::TreeShmem),
        (128 << 10, BcastAlgorithm::TreeShaddr { caching: true }),
        (2 << 20, BcastAlgorithm::TorusShaddr),
    ] {
        assert_eq!(policy.select_bcast(&cfg, bytes), expect, "tuned @ {bytes}");
    }
}

/// Run one auto-selected bcast under `BGP_TUNE_TABLE = path` and report
/// (picked algorithm, warning text, table count, fallback count).
fn auto_with_env(path: &str) -> (BcastAlgorithm, Option<String>, u64, u64) {
    std::env::set_var(TABLE_ENV, path);
    let mut mpi = Mpi::new(MachineConfig::test_small(OpMode::Quad));
    std::env::remove_var(TABLE_ENV);
    let warning = mpi.policy().warning().map(str::to_string);
    mpi.enable_probe();
    let (alg, _) = mpi.bcast_auto(1024);
    let table = mpi.probe().counter("tune.table");
    let fallback = mpi.probe().counter("tune.fallback");
    (alg, warning, table, fallback)
}

/// A corrupt, a stale-schema, and a missing env-override table all fall
/// back to the builtin table — no panic, the builtin pick, a warning
/// recorded, and the `tune.fallback` probe counter ticking instead of
/// `tune.table`.
#[test]
fn bad_env_tables_fall_back_to_static_cleanly() {
    let _guard = ENV_LOCK.lock().unwrap();
    let dir = std::env::temp_dir();
    let builtin_pick =
        SelectionPolicy::builtin().select_bcast(&MachineConfig::test_small(OpMode::Quad), 1024);
    assert_eq!(builtin_pick, BcastAlgorithm::TreeShmem);

    let corrupt = dir.join(format!("bgp_tune_corrupt_{}.json", std::process::id()));
    std::fs::write(
        &corrupt,
        "{\"schema\": \"bgp-tune-table-v1\", \"entries\": ",
    )
    .unwrap();
    let stale = dir.join(format!("bgp_tune_stale_{}.json", std::process::id()));
    std::fs::write(
        &stale,
        BUILTIN_TABLE_JSON.replace("bgp-tune-table-v1", "bgp-tune-table-v0"),
    )
    .unwrap();
    let missing = dir.join(format!("bgp_tune_missing_{}.json", std::process::id()));

    for path in [&corrupt, &stale, &missing] {
        let (alg, warning, table, fallback) = auto_with_env(path.to_str().unwrap());
        assert_eq!(
            alg, builtin_pick,
            "{path:?} must fall back to the builtin table"
        );
        let w = warning.expect("a bad env table must record a warning");
        assert!(
            w.contains("BGP_TUNE_TABLE"),
            "warning names the source: {w}"
        );
        assert_eq!(table, 0, "{path:?} must not count tune.table");
        assert!(fallback >= 1, "{path:?} must count tune.fallback");
    }
    std::fs::remove_file(&corrupt).unwrap();
    std::fs::remove_file(&stale).unwrap();

    // Control: a *valid* env table is served (tune.table ticks, no warning).
    let valid = dir.join(format!("bgp_tune_valid_{}.json", std::process::id()));
    std::fs::write(&valid, BUILTIN_TABLE_JSON).unwrap();
    let (_, warning, table, fallback) = auto_with_env(valid.to_str().unwrap());
    assert_eq!(warning, None);
    assert_eq!((table, fallback), (1, 0));
    std::fs::remove_file(&valid).unwrap();
}

/// §IV-C: a tuning table can move crossovers, but it can never force a
/// counter path (Shaddr) onto non-contiguous data. Even a table whose only
/// region maps *every* size to `torus_shaddr` gets demoted to the FIFO
/// torus path for a strided vector type.
#[test]
fn table_cannot_override_noncontiguous_demotion() {
    let all_shaddr = TuningTable {
        generator: "test: everything rides the counter path".into(),
        seed: 0,
        resamples: 0,
        entries: vec![ShapeEntry {
            mode: OpMode::Quad,
            nodes: 64,
            regions: vec![Region {
                upto: None,
                alg: BcastAlgorithm::TorusShaddr,
                confidence: 1.0,
            }],
            ar_regions: vec![Region {
                upto: None,
                alg: AllreduceAlgorithm::RingCurrent,
                confidence: 1.0,
            }],
        }],
    };
    // The table round-trips through the on-disk format, so this is exactly
    // what a checked-in file could express.
    let table = TuningTable::parse(&all_shaddr.to_json()).unwrap();
    let policy = SelectionPolicy::from_table(table, PolicySource::Builtin);
    let cfg = MachineConfig::test_small(OpMode::Quad);
    let strided = Datatype::Vector {
        count: 256,
        blocklen: 4,
        stride: 16,
    };

    assert_eq!(
        policy.select_bcast(&cfg, 1024),
        BcastAlgorithm::TorusShaddr,
        "contiguous data follows the table"
    );
    assert_eq!(
        policy.select_bcast_typed(&cfg, 1024, strided),
        BcastAlgorithm::TorusFifo,
        "non-contiguous data is demoted off the counter path"
    );

    // End to end through Mpi: the executed algorithm is the demoted one,
    // and each typed op counts exactly one table lookup.
    let mut mpi = Mpi::with_policy(cfg.clone(), policy);
    mpi.enable_probe();
    for (dtype, expect) in [
        (strided, BcastAlgorithm::TorusFifo),
        (Datatype::Contiguous, BcastAlgorithm::TorusShaddr),
    ] {
        let (alg, _) = mpi.bcast_auto_typed(1024, dtype);
        assert_eq!(alg, expect, "{dtype:?}");
        assert_eq!(mpi.probe().counter("tune.table"), 1, "{dtype:?}");
        assert_eq!(mpi.probe().counter("tune.fallback"), 0, "{dtype:?}");
    }
    // A table with no entry for this mode: the builtin table answers,
    // counted once as the fallback, and its pick is demoted all the same.
    let smp_only = TuningTable {
        entries: vec![ShapeEntry {
            mode: OpMode::Smp,
            ..all_shaddr.entries[0].clone()
        }],
        ..all_shaddr
    };
    let policy = SelectionPolicy::from_table(smp_only, PolicySource::Builtin);
    let mut mpi = Mpi::with_policy(cfg, policy);
    mpi.enable_probe();
    let (alg, _) = mpi.bcast_auto_typed(64 << 10, strided);
    assert_eq!(alg, BcastAlgorithm::TreeDmaDirectPut);
    assert_eq!(mpi.probe().counter("tune.table"), 0);
    assert_eq!(mpi.probe().counter("tune.fallback"), 1);
}

/// The auto path reports which policy answered: with the builtin table the
/// `tune.table` counter ticks on a table-served machine shape. (The probe
/// resets per operation, so each op is checked right after it runs.)
#[test]
fn builtin_table_serves_the_default_machine() {
    let _guard = ENV_LOCK.lock().unwrap();
    let mut mpi = Mpi::new(MachineConfig::two_racks_quad());
    assert_eq!(mpi.policy().warning(), None);
    mpi.enable_probe();
    for bytes in [1024, 2 << 20] {
        mpi.bcast_auto(bytes);
        assert_eq!(mpi.probe().counter("tune.table"), 1, "@ {bytes}");
        assert_eq!(mpi.probe().counter("tune.fallback"), 0, "@ {bytes}");
    }
}
