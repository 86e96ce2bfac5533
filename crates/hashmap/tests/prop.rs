//! Property-based tests: the ALE HashMap and the uninstrumented baseline
//! map against `std::collections::HashMap` under arbitrary operation
//! scripts, across platforms, variants, and version-striping
//! configurations.

use std::collections::HashMap;
use std::sync::Arc;

use ale_core::{Ale, AleConfig, StaticPolicy};
use ale_hashmap::{AleHashMap, BaselineHashMap, MapConfig};
use ale_vtime::Platform;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    InsertFine(u64, u64),
    RemoveFine(u64),
    RemoveSelfAbort(u64),
}

fn op_strategy(keys: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..keys, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => (0..keys).prop_map(Op::Remove),
        4 => (0..keys).prop_map(Op::Get),
        1 => (0..keys, any::<u64>()).prop_map(|(k, v)| Op::InsertFine(k, v)),
        1 => (0..keys).prop_map(Op::RemoveFine),
        1 => (0..keys).prop_map(Op::RemoveSelfAbort),
    ]
}

fn check_script(
    platform: Platform,
    x: u32,
    y: u32,
    stripes: usize,
    script: &[Op],
) -> Result<(), TestCaseError> {
    let ale: Arc<Ale> = Ale::new(
        AleConfig::new(platform).with_seed(5),
        StaticPolicy::new(x, y),
    );
    let map: AleHashMap<u64> =
        AleHashMap::new(&ale, MapConfig::new(32).with_version_stripes(stripes));
    // The baseline has no §3.3 variants: it runs their plain counterparts.
    let base: BaselineHashMap<u64> = BaselineHashMap::new(32, 1 << 12);
    let mut model: HashMap<u64, u64> = HashMap::new();
    for op in script {
        match *op {
            Op::Insert(k, v) | Op::InsertFine(k, v) => {
                let fresh = !model.contains_key(&k);
                let inserted = match op {
                    Op::Insert(..) => map.insert(k, v),
                    _ => map.insert_fine(k, v),
                };
                prop_assert_eq!(inserted, fresh);
                prop_assert_eq!(base.insert(k, v), fresh);
                model.insert(k, v);
            }
            Op::Remove(k) | Op::RemoveFine(k) | Op::RemoveSelfAbort(k) => {
                let present = model.remove(&k).is_some();
                let removed = match op {
                    Op::Remove(_) => map.remove(k),
                    Op::RemoveFine(_) => map.remove_fine(k),
                    _ => map.remove_self_abort(k),
                };
                prop_assert_eq!(removed, present);
                prop_assert_eq!(base.remove(k), present);
            }
            Op::Get(k) => {
                let want = model.get(&k).copied();
                let (mut v, mut bv) = (0, 0);
                prop_assert_eq!(map.get(k, &mut v).then_some(v), want);
                prop_assert_eq!(base.get(k, &mut bv).then_some(bv), want);
            }
        }
    }
    prop_assert_eq!(map.len_slow(), model.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// HTM-first execution matches the reference model.
    #[test]
    fn matches_model_htm(script in proptest::collection::vec(op_strategy(32), 0..120)) {
        check_script(Platform::testbed(), 4, 0, 1, &script)?;
    }

    /// SWOpt-first execution (no HTM platform) matches the reference model.
    #[test]
    fn matches_model_swopt(script in proptest::collection::vec(op_strategy(32), 0..120)) {
        check_script(Platform::t2(), 0, 8, 1, &script)?;
    }

    /// Rock's flaky HTM (spurious aborts, tiny write sets) still yields
    /// correct results — failures must be invisible.
    #[test]
    fn matches_model_rock(script in proptest::collection::vec(op_strategy(32), 0..120)) {
        check_script(Platform::rock(), 3, 6, 1, &script)?;
    }

    /// Per-bucket version stripes preserve semantics.
    #[test]
    fn matches_model_striped(
        script in proptest::collection::vec(op_strategy(32), 0..120),
        stripes in 1usize..64,
    ) {
        check_script(Platform::testbed(), 4, 8, stripes, &script)?;
    }
}
