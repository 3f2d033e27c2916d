//! The row-at-a-time reference join.
//!
//! [`crate::ops::natural_join_ctx`] is allocation-lean (normalized `u64`
//! join keys, one chained index, arena slice-append — see [`crate::ops`] and
//! [`crate::key`]). This module keeps the obvious implementation — a
//! `Vec<Value>` key per probed row, a `Tuple` and a fresh lineage `Vec` per
//! output row — as the reference the tests hold the optimized join against:
//! same rows, same lineage, same `(left row, right row)` emit order.

use std::collections::HashMap;

use pdb_storage::Value;

use crate::annotated::{Annotated, AnnotatedRow};
use crate::error::ExecResult;
use crate::ops::join_layout;

/// Reference natural hash join: per-row `Vec<Value>` keys
/// on both sides, per-output-row `Tuple` and lineage-`Vec` allocations.
///
/// # Errors
/// Fails if the inputs share a lineage relation (self-join).
pub fn natural_join_rowwise(left: &Annotated, right: &Annotated) -> ExecResult<Annotated> {
    let layout = join_layout(left, right)?;
    let mut out = Annotated::new(layout.schema, layout.relations);

    // Build a hash table on the right input by join key.
    let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (i, row) in right.iter().enumerate() {
        let key: Vec<Value> = layout
            .right_key_idx
            .iter()
            .map(|&k| row.data[k].clone())
            .collect();
        index.entry(key).or_default().push(i);
    }
    for lrow in left.iter() {
        let key: Vec<Value> = layout
            .left_key_idx
            .iter()
            .map(|&k| lrow.data[k].clone())
            .collect();
        // Joins never match on NULL keys.
        if key.iter().any(Value::is_null) {
            continue;
        }
        let Some(matches) = index.get(&key) else {
            continue;
        };
        for &ri in matches {
            let rrow = right.row(ri);
            let mut data = lrow.data_tuple();
            for &i in &layout.right_only_idx {
                data.push(rrow.data[i].clone());
            }
            let mut lineage = lrow.lineage.to_vec();
            lineage.extend(rrow.lineage.iter().copied());
            out.push(AnnotatedRow::new(data, lineage));
        }
    }
    Ok(out)
}
