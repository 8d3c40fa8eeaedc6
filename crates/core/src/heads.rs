//! Static sparsity determination (§3.3): gate values → head classification.

use lserve_workloads::HeadProfile;

/// Classifies heads from flat gate values: heads whose `α` falls below the
/// `target_sparsity` quantile become streaming heads (`true` in the returned mask).
///
/// With `target_sparsity = 0.5` the threshold `τ` is the median gate value, so half
/// of all heads stream — the paper's default configuration.
///
/// # Panics
///
/// Panics if `alphas` is empty or `target_sparsity` is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use lserve_core::classify_heads;
///
/// let mask = classify_heads(&[0.1, 0.9, 0.2, 0.8], 0.5);
/// assert_eq!(mask, vec![true, false, true, false]);
/// ```
pub fn classify_heads(alphas: &[f32], target_sparsity: f64) -> Vec<bool> {
    assert!(!alphas.is_empty(), "no gate values");
    assert!(
        (0.0..=1.0).contains(&target_sparsity),
        "sparsity must be in [0,1]"
    );
    let cutoff_count = (target_sparsity * alphas.len() as f64).round() as usize;
    if cutoff_count == 0 {
        return vec![false; alphas.len()];
    }
    if cutoff_count >= alphas.len() {
        return vec![true; alphas.len()];
    }
    // Mark the lowest `cutoff_count` heads streaming, breaking ties at the
    // threshold by index so that they cannot push the count over target.
    let mut idx: Vec<usize> = (0..alphas.len()).collect();
    idx.sort_by(|&a, &b| {
        alphas[a]
            .partial_cmp(&alphas[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut mask = vec![false; alphas.len()];
    for &i in idx.iter().take(cutoff_count) {
        mask[i] = true;
    }
    debug_assert!(mask.iter().filter(|&&m| m).count() == cutoff_count);
    mask
}

/// Per-layer streaming masks from per-layer head profiles, thresholding over the
/// *global* gate distribution (the paper's quantile is across all attention heads).
pub fn streaming_masks_from_gates(
    gates: &[Vec<HeadProfile>],
    target_sparsity: f64,
) -> Vec<Vec<bool>> {
    let flat: Vec<f32> = gates.iter().flatten().map(|p| p.alpha).collect();
    let mask_flat = classify_heads(&flat, target_sparsity);
    let mut out = Vec::with_capacity(gates.len());
    let mut cursor = 0;
    for layer in gates {
        out.push(mask_flat[cursor..cursor + layer.len()].to_vec());
        cursor += layer.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lserve_workloads::duo_gates;

    #[test]
    fn half_sparsity_halves_heads() {
        let alphas = [0.9f32, 0.1, 0.8, 0.2, 0.7, 0.3, 0.6, 0.4];
        let mask = classify_heads(&alphas, 0.5);
        assert_eq!(mask.iter().filter(|&&m| m).count(), 4);
        assert!(mask[1] && mask[3]); // lowest gates stream
        assert!(!mask[0] && !mask[2]);
    }

    #[test]
    fn zero_and_full_sparsity() {
        let alphas = [0.5f32, 0.5, 0.5];
        assert_eq!(classify_heads(&alphas, 0.0), vec![false; 3]);
        assert_eq!(classify_heads(&alphas, 1.0), vec![true; 3]);
    }

    #[test]
    fn ties_respect_exact_count() {
        let alphas = [0.5f32; 10];
        let mask = classify_heads(&alphas, 0.3);
        assert_eq!(mask.iter().filter(|&&m| m).count(), 3);
    }

    #[test]
    fn global_quantile_across_layers() {
        let gates = duo_gates(32, 8, 17);
        let masks = streaming_masks_from_gates(&gates, 0.5);
        let total: usize = masks.iter().map(|m| m.iter().filter(|&&x| x).count()).sum();
        assert_eq!(total, 32 * 8 / 2);
        // Bimodal gates → classification matches the underlying locality.
        for (layer, mask) in gates.iter().zip(&masks) {
            for (p, &streaming) in layer.iter().zip(mask) {
                if p.locality > 0.8 {
                    assert!(streaming, "strongly local head must stream");
                }
                if p.locality < 0.2 {
                    assert!(!streaming, "strongly retrieval head must stay dense");
                }
            }
        }
    }
}
