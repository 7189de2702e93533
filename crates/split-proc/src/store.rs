//! A simulated checkpoint filesystem's performance model.
//!
//! The paper's Table 3 reports checkpoint time against checkpoint image size on an
//! NFSv3 filesystem whose effective per-rank bandwidth is a few MB/s (3.3–12.8
//! MB/s/rank in the measurements). [`StoreConfig`] *models* the write time from the
//! configured bandwidth and per-checkpoint latency; the `ckpt-store` engine applies
//! it to the bytes each write actually stores.

use serde::{Deserialize, Serialize};

/// Filesystem performance model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoreConfig {
    /// Effective sustained write bandwidth per rank, in MB/s.
    ///
    /// Table 3's NFSv3 filesystem sustains roughly 3–13 MB/s/rank depending on how well
    /// large sequential writes amortize metadata traffic; larger images achieve higher
    /// effective bandwidth, which the `large_image_bandwidth_mb_s` knob models.
    pub base_bandwidth_mb_s: f64,
    /// Effective bandwidth once an image is large enough to stream (≥ the threshold).
    pub large_image_bandwidth_mb_s: f64,
    /// Image size, in MB, above which the large-image bandwidth applies.
    pub large_image_threshold_mb: f64,
    /// Fixed per-checkpoint latency in seconds (coordination, metadata, fsync).
    pub fixed_latency_s: f64,
}

impl StoreConfig {
    /// A configuration calibrated to the paper's Discovery/NFSv3 numbers (Table 3).
    pub fn nfs_discovery() -> Self {
        StoreConfig {
            base_bandwidth_mb_s: 3.6,
            large_image_bandwidth_mb_s: 12.8,
            large_image_threshold_mb: 150.0,
            fixed_latency_s: 0.5,
        }
    }

    /// A configuration resembling a parallel filesystem on a large HPC site (much
    /// higher bandwidth; used to show checkpoint times "will continue to be modest").
    pub fn parallel_fs() -> Self {
        StoreConfig {
            base_bandwidth_mb_s: 300.0,
            large_image_bandwidth_mb_s: 1200.0,
            large_image_threshold_mb: 512.0,
            fixed_latency_s: 0.2,
        }
    }

    /// Modelled time, in seconds, to write an image of `size_mb` megabytes from one rank.
    pub fn write_time_s(&self, size_mb: f64) -> f64 {
        let bandwidth = if size_mb >= self.large_image_threshold_mb {
            self.large_image_bandwidth_mb_s
        } else {
            // Interpolate: small images are dominated by per-block overheads.
            let t = (size_mb / self.large_image_threshold_mb).clamp(0.0, 1.0);
            self.base_bandwidth_mb_s
                + t * (self.large_image_bandwidth_mb_s - self.base_bandwidth_mb_s) * 0.5
        };
        self.fixed_latency_s + size_mb / bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_time_grows_with_size_but_bandwidth_improves() {
        let config = StoreConfig::nfs_discovery();
        // Paper Table 3: CoMD 32 MB -> ~9 s; HPCG 934 MB -> ~73 s.
        let small = config.write_time_s(32.0);
        let large = config.write_time_s(934.0);
        assert!(small < large);
        assert!(small > 4.0 && small < 15.0, "small image time {small}");
        assert!(large > 50.0 && large < 110.0, "large image time {large}");
        let small_bw = 32.0 / small;
        let large_bw = 934.0 / large;
        assert!(
            large_bw > small_bw,
            "large images achieve better effective bandwidth (Table 3 trend)"
        );
    }

    #[test]
    fn parallel_fs_is_much_faster() {
        let nfs = StoreConfig::nfs_discovery().write_time_s(200.0);
        let pfs = StoreConfig::parallel_fs().write_time_s(200.0);
        assert!(pfs < nfs / 10.0);
    }
}
