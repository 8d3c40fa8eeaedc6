//! Paging configuration shared by caches, kernels and selectors.

use lserve_quant::KvPrecision;

/// Physical/logical page geometry and KV storage precision.
///
/// The hierarchical paging system of §3.5.2 groups `N_L` tokens into a logical page
/// (the granularity of key statistics and importance scoring) and `N_P = g · N_L`
/// tokens into a physical page (the granularity of memory layout and attention
/// iteration). `physical_page_size == logical_page_size` recovers the flat,
/// Quest-style layout.
///
/// # Example
///
/// ```
/// use lserve_kvcache::PagingConfig;
/// use lserve_quant::KvPrecision;
///
/// let cfg = PagingConfig::new(64, 16, KvPrecision::Int4);
/// assert_eq!(cfg.logical_per_physical(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagingConfig {
    physical_page_size: usize,
    logical_page_size: usize,
    precision: KvPrecision,
}

impl PagingConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero or `physical_page_size` is not a multiple of
    /// `logical_page_size` (the paper requires `N_P = g · N_L`, `g ∈ Z`).
    pub fn new(
        physical_page_size: usize,
        logical_page_size: usize,
        precision: KvPrecision,
    ) -> Self {
        assert!(
            physical_page_size > 0,
            "physical page size must be positive"
        );
        assert!(logical_page_size > 0, "logical page size must be positive");
        assert_eq!(
            physical_page_size % logical_page_size,
            0,
            "physical page size {physical_page_size} must be a multiple of logical page size {logical_page_size}"
        );
        Self {
            physical_page_size,
            logical_page_size,
            precision,
        }
    }

    /// Flat paging (logical == physical), the Quest baseline layout.
    pub fn flat(page_size: usize, precision: KvPrecision) -> Self {
        Self::new(page_size, page_size, precision)
    }

    /// LServe's default geometry: 64-token physical pages, 16-token logical pages,
    /// INT4 KV (paper §4.1 / Figure 13(c)).
    pub fn lserve_default() -> Self {
        Self::new(64, 16, KvPrecision::Int4)
    }

    /// Tokens per physical page (`N_P`).
    pub fn physical_page_size(&self) -> usize {
        self.physical_page_size
    }

    /// Tokens per logical page (`N_L`).
    pub fn logical_page_size(&self) -> usize {
        self.logical_page_size
    }

    /// Logical pages per physical page (`g = N_P / N_L`).
    pub fn logical_per_physical(&self) -> usize {
        self.physical_page_size / self.logical_page_size
    }

    /// KV storage precision.
    pub fn precision(&self) -> KvPrecision {
        self.precision
    }

    /// Number of physical pages needed to hold `tokens` tokens.
    pub fn pages_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.physical_page_size)
    }
}

impl Default for PagingConfig {
    fn default() -> Self {
        Self::lserve_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = PagingConfig::default();
        assert_eq!(c.physical_page_size(), 64);
        assert_eq!(c.logical_page_size(), 16);
        assert_eq!(c.logical_per_physical(), 4);
        assert_eq!(c.precision(), KvPrecision::Int4);
    }

    #[test]
    fn flat_has_ratio_one() {
        let c = PagingConfig::flat(32, KvPrecision::Fp16);
        assert_eq!(c.logical_per_physical(), 1);
    }

    #[test]
    fn pages_for_rounds_up() {
        let c = PagingConfig::new(64, 16, KvPrecision::Fp16);
        assert_eq!(c.pages_for(0), 0);
        assert_eq!(c.pages_for(1), 1);
        assert_eq!(c.pages_for(64), 1);
        assert_eq!(c.pages_for(65), 2);
    }

    #[test]
    #[should_panic(expected = "must be a multiple")]
    fn rejects_non_multiple() {
        let _ = PagingConfig::new(48, 32, KvPrecision::Fp16);
    }
}
