//! Persistent model snapshots for the `iim` workspace.
//!
//! The paper's phase split — an expensive offline learning pass, a cheap
//! online imputation pass (§VI-B3) — only pays off in production if the
//! offline output *survives the process*. This crate gives every fitted
//! imputer in the lineup (IIM plus the thirteen Table II baselines) a
//! versioned, deterministic binary snapshot:
//!
//! * [`save_path`] / [`save`] / [`save_to_vec`] — serialize a
//!   [`FittedImputer`](iim_data::FittedImputer) (magic bytes, format
//!   version, method tag, checksummed payload; see [`snapshot`]).
//! * [`load_path`] / [`load`] / [`load_from_slice`] — deserialize back
//!   into a serving model.
//! * [`inspect`] — container metadata without decoding the payload.
//!
//! # Guarantees
//!
//! * **Bit-exact serving.** A loaded model answers every query with the
//!   same bits as the in-process model it was saved from — floats travel
//!   as IEEE-754 bit patterns, stochastic methods (BLR, PMM) persist their
//!   query-keyed seeds, and neighbor indexes rebuild deterministically.
//!   A snapshot is a deployment artifact, not an approximation
//!   (property-tested per method in `tests/persist_roundtrip.rs`, and
//!   asserted end-to-end by the CI serving job).
//! * **Deterministic bytes.** Saving the same fitted model twice produces
//!   identical files (map iteration is sorted before encoding), so
//!   snapshots are diffable and content-addressable.
//! * **Total loading, crash-aware.** Damage to the base container or to
//!   the interior of the delta region returns a typed [`PersistError`] —
//!   never a panic. A torn or corrupt **final** delta record (the only
//!   damage a crash mid-append can inflict) is instead dropped: the
//!   valid prefix loads, and [`SnapshotInfo::recovered_at`] reports the
//!   boundary so the caller can repair the file with
//!   [`truncate_deltas_path`].
//! * **Durable writes.** [`save_path`] / [`save_bytes_path`] publish via
//!   temp-file + `fsync` + rename + parent-directory `fsync`;
//!   [`append_delta_path`] `fsync`s before acknowledging. See
//!   [`snapshot`] for the full durability contract.
//!
//! # Example
//!
//! ```
//! use iim_core::{Iim, IimConfig};
//! use iim_data::{Imputer, PerAttributeImputer};
//!
//! let (rel, tx) = iim_data::paper_fig1();
//! let fitted = PerAttributeImputer::new(Iim::new(IimConfig { k: 3, ..Default::default() }))
//!     .fit(&rel)
//!     .unwrap();
//!
//! // Save, drop, load: the round-tripped model serves the same bits.
//! let bytes = iim_persist::save_to_vec(fitted.as_ref()).unwrap();
//! let loaded = iim_persist::load_from_slice(&bytes).unwrap();
//! assert_eq!(loaded.name(), "IIM");
//! let a = fitted.impute_one(&tx).unwrap();
//! let b = loaded.impute_one(&tx).unwrap();
//! assert_eq!(a[1].to_bits(), b[1].to_bits());
//! ```

pub mod codec;
pub mod error;
pub mod snapshot;
pub mod wire;

pub use error::PersistError;
pub use snapshot::{
    append_delta_path, encode_delta, inspect, load, load_from_slice, load_from_slice_with_info,
    load_path, rename_durable, save, save_bytes_path, save_path, save_to_vec, save_to_vec_v2,
    save_to_vec_with_schema, truncate_deltas_path, write_file_durable, SnapshotInfo, DELTA_MAGIC,
    FORMAT_VERSION, FORMAT_VERSION_V2, MAGIC, MIN_FORMAT_VERSION,
};

#[cfg(test)]
mod tests {
    use super::*;
    use iim_data::{paper_fig1, FittedImputer, ImputeError, Imputer, RowOpt};

    struct Opaque;
    impl FittedImputer for Opaque {
        fn name(&self) -> &str {
            "Opaque"
        }
        fn arity(&self) -> usize {
            1
        }
        fn impute_one(&self, _row: &RowOpt) -> Result<Vec<f64>, ImputeError> {
            Ok(vec![0.0])
        }
    }

    fn fitted_iim() -> Box<dyn FittedImputer> {
        let (rel, _) = paper_fig1();
        iim_data::PerAttributeImputer::new(iim_core::Iim::new(iim_core::IimConfig {
            k: 3,
            ..Default::default()
        }))
        .fit(&rel)
        .unwrap()
    }

    #[test]
    fn save_is_deterministic_and_inspectable() {
        let fitted = fitted_iim();
        let a = save_to_vec(fitted.as_ref()).unwrap();
        let b = save_to_vec(fitted.as_ref()).unwrap();
        assert_eq!(a, b, "same model must snapshot to identical bytes");
        let info = inspect(&a).unwrap();
        assert_eq!(info.method, "IIM");
        assert_eq!(info.version, FORMAT_VERSION);
        assert!(info.payload_len > 0);
    }

    #[test]
    fn opaque_models_save_with_a_typed_error() {
        assert!(matches!(
            save_to_vec(&Opaque),
            Err(PersistError::UnsupportedModel(name)) if name == "Opaque"
        ));
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let fitted = fitted_iim();
        let good = save_to_vec(fitted.as_ref()).unwrap();

        assert!(matches!(
            load_from_slice(b"not a snapshot"),
            Err(PersistError::BadMagic)
        ));

        let mut newer = good.clone();
        newer[8] = 0xFF; // version low byte
        assert!(matches!(
            load_from_slice(&newer),
            Err(PersistError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn crafted_huge_payload_length_is_corrupt_not_panic() {
        // payload_len near u64::MAX must not overflow the bounds check.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes()); // empty method tag
        bytes.extend_from_slice(&0u16.to_le_bytes()); // empty schema
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            load_from_slice(&bytes),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn xgb_split_pointing_back_is_corrupt_not_a_hang() {
        use iim_baselines::xgb::{Node, Tree, XgbModel};
        use iim_data::{FittedAttrModel, FittedPerAttribute};
        let with_nodes = |nodes: Vec<Node>| {
            let model = FittedAttrModel {
                features: vec![1],
                means: vec![0.0],
                mean_sums: vec![0.0],
                mean_count: 1,
                predictor: Box::new(XgbModel {
                    base: 0.0,
                    eta: 0.3,
                    trees: vec![Tree { nodes }],
                }),
            };
            FittedPerAttribute::from_parts("XGB".into(), 2, vec![Some(model), None])
        };
        let split = |left, right| Node::Split {
            feature: 0,
            threshold: 1.0,
            left,
            right,
        };
        // Serving either tree would loop forever in `Tree::predict`.
        let self_edge = with_nodes(vec![split(0, 1), Node::Leaf(1.0)]);
        let back_edge = with_nodes(vec![split(1, 2), split(2, 0), Node::Leaf(1.0)]);
        for hostile in [self_edge, back_edge] {
            let bytes = save_to_vec(&hostile).unwrap();
            assert!(matches!(
                load_from_slice(&bytes),
                Err(PersistError::Corrupt(msg)) if msg.contains("xgb")
            ));
        }
    }

    #[test]
    fn schema_round_trips_and_is_validated() {
        let fitted = fitted_iim();
        let schema = vec!["lng".to_string(), "price".to_string()];
        let bytes = save_to_vec_with_schema(fitted.as_ref(), &schema).unwrap();
        let info = inspect(&bytes).unwrap();
        assert_eq!(info.schema, schema);
        let (loaded, info) = load_from_slice_with_info(&bytes).unwrap();
        assert_eq!(loaded.arity(), 2);
        assert_eq!(info.schema, schema);
        // Schema-free save records an empty schema.
        let bare = save_to_vec(fitted.as_ref()).unwrap();
        assert!(inspect(&bare).unwrap().schema.is_empty());
        // A schema of the wrong arity is refused at save time.
        assert!(matches!(
            save_to_vec_with_schema(fitted.as_ref(), &["x".to_string()]),
            Err(PersistError::UnsupportedModel(_))
        ));
    }

    #[test]
    fn flipped_payload_byte_fails_the_checksum() {
        let fitted = fitted_iim();
        let mut bytes = save_to_vec(fitted.as_ref()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            load_from_slice(&bytes),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_errors_in_the_base_and_recovers_in_the_tail() {
        // Covers the whole container: cuts inside the base (magic,
        // version, method tag, schema block, payload, checksum) stay
        // typed errors; cuts inside the appended delta record are what a
        // crash mid-append leaves, and recover to the base model.
        let fitted = fitted_iim();
        let mut bytes = save_to_vec(fitted.as_ref()).unwrap();
        let base_len = bytes.len();
        bytes.extend_from_slice(&encode_delta(&[vec![2.5, 3.5]]));
        for cut in 0..bytes.len() {
            if cut < base_len {
                // Must be an Err (never a panic, never an Ok on a prefix).
                assert!(
                    load_from_slice(&bytes[..cut]).is_err(),
                    "base prefix of {cut} bytes decoded successfully"
                );
            } else if cut == base_len {
                // Cutting exactly at the record boundary yields a valid
                // (delta-free) snapshot by design: nothing to recover.
                let (_, info) = load_from_slice_with_info(&bytes[..cut]).unwrap();
                assert_eq!(info.recovered_at, None);
            } else {
                // A torn final record: the base loads, the tail is
                // dropped, and the valid boundary is reported.
                let (loaded, info) = load_from_slice_with_info(&bytes[..cut]).unwrap();
                assert_eq!(info.recovered_at, Some(base_len as u64));
                assert_eq!(info.absorbed_rows, 0);
                assert_eq!(loaded.absorbed(), 0);
            }
        }
    }

    #[test]
    fn delta_records_replay_to_the_absorbed_model() {
        let mut live = fitted_iim();
        let base = save_to_vec(live.as_ref()).unwrap();

        // Absorb a few rows into the live model and checkpoint only the
        // delta, split across two records.
        let rows = [vec![4.6, 2.0], vec![0.4, 5.1], vec![9.5, 2.6]];
        for row in &rows {
            live.absorb(row).unwrap();
        }
        let mut bytes = base.clone();
        bytes.extend_from_slice(&encode_delta(&rows[..2]));
        bytes.extend_from_slice(&encode_delta(&rows[2..]));

        let info = inspect(&bytes).unwrap();
        assert_eq!(info.absorbed_rows, 3);
        assert_eq!(inspect(&base).unwrap().absorbed_rows, 0);

        let (loaded, info) = load_from_slice_with_info(&bytes).unwrap();
        assert_eq!(info.absorbed_rows, 3);
        assert_eq!(loaded.absorbed(), 3);
        // Replay reproduces the live model's serving bits exactly.
        let q = [Some(5.0), None];
        let a = live.impute_one(&q).unwrap();
        let b = loaded.impute_one(&q).unwrap();
        assert_eq!(a[1].to_bits(), b[1].to_bits());
    }

    #[test]
    fn interior_delta_corruption_is_a_typed_error() {
        let fitted = fitted_iim();
        let base = save_to_vec(fitted.as_ref()).unwrap();

        // A flipped byte in a record *followed by* a complete valid
        // record is interior corruption — no crash produces it (the
        // region is append-only), so the load refuses rather than
        // dropping the interior record.
        let mut flipped = base.clone();
        let delta_start = flipped.len();
        flipped.extend_from_slice(&encode_delta(&[vec![1.0, 2.0]]));
        flipped.extend_from_slice(&encode_delta(&[vec![3.0, 4.0]]));
        flipped[delta_start + 20] ^= 0x01;
        assert!(matches!(
            load_from_slice(&flipped),
            Err(PersistError::ChecksumMismatch { .. })
        ));

        // A checksum-clean record whose payload does not decode is
        // writer damage, not crash damage: hard error even at the tail.
        let mut tampered = base.clone();
        let payload = [0xFFu8; 4];
        tampered.extend_from_slice(&DELTA_MAGIC);
        tampered.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        tampered.extend_from_slice(&payload);
        tampered.extend_from_slice(&wire::fnv1a64(&payload).to_le_bytes());
        assert!(matches!(
            load_from_slice(&tampered),
            Err(PersistError::Truncated { .. }) | Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn torn_tail_recovers_to_the_valid_prefix() {
        let fitted = fitted_iim();
        let mut bytes = save_to_vec(fitted.as_ref()).unwrap();
        bytes.extend_from_slice(&encode_delta(&[vec![4.6, 2.0]]));
        let valid_len = bytes.len() as u64;

        // Trailing garbage that never completes a record is dropped with
        // a report; the valid record before it still replays.
        let mut garbage = bytes.clone();
        garbage.extend_from_slice(b"not a delta");
        let (loaded, info) = load_from_slice_with_info(&garbage).unwrap();
        assert_eq!(info.recovered_at, Some(valid_len));
        assert_eq!(info.absorbed_rows, 1);
        assert_eq!(loaded.absorbed(), 1);
        assert_eq!(inspect(&garbage).unwrap().recovered_at, Some(valid_len));

        // An intact file reports no recovery.
        let (_, info) = load_from_slice_with_info(&bytes).unwrap();
        assert_eq!(info.recovered_at, None);
        assert_eq!(inspect(&bytes).unwrap().recovered_at, None);
    }

    #[test]
    fn delta_on_an_absorb_free_method_fails_typed() {
        // kNN has no absorb support: a delta record must fail the load
        // with a typed error, not silently drop rows.
        let (rel, _) = paper_fig1();
        let fitted = iim_data::PerAttributeImputer::new(iim_baselines::knn::Knn::new(3))
            .fit(&rel)
            .unwrap();
        let mut bytes = save_to_vec(fitted.as_ref()).unwrap();
        bytes.extend_from_slice(&encode_delta(&[vec![1.0, 2.0]]));
        assert!(matches!(
            load_from_slice(&bytes),
            Err(PersistError::Corrupt(msg)) if msg.contains("failed to replay")
        ));
    }
}
