//! Correctness checks shared by the workloads.

use std::path::Path;

/// FNV-1a 64 of a response body: the bulk workload keeps one hash per
/// response instead of every body.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Durability: reloading the snapshot at `path` must replay exactly the
/// learns the daemon acknowledged (`in_doubt` more may have landed when
/// the last learn's reply was lost).
pub fn durability(path: &Path, acknowledged: usize, in_doubt: usize) -> Result<usize, String> {
    let model =
        iim_persist::load_path(path).map_err(|e| format!("reloading {}: {e}", path.display()))?;
    let absorbed = model.absorbed();
    if absorbed < acknowledged || absorbed > acknowledged + in_doubt {
        return Err(format!(
            "durability: the reloaded snapshot replays {absorbed} learns, \
             but the daemon acknowledged {acknowledged}"
        ));
    }
    Ok(absorbed)
}
