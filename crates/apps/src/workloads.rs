//! The paper's workload definitions and reference measurements.
//!
//! Table 1 (single-node inputs on the Discovery cluster), Table 2 (Perlmutter inputs),
//! the §6.3 context-switch rates, the Table 3 checkpoint sizes/times, and the runtime
//! bars of Figures 2, 3 and 4 are all encoded here so the benchmark harness can print
//! "paper vs. reproduced" side by side. The numbers come directly from the paper's
//! text and figures; they are *reference* values, not measurements of this machine.

use crate::skeleton::AppId;

/// Runtime bars (seconds) reported by the paper for one application on the Discovery
/// cluster (Figures 2 and 3). `None` means the paper did not run that combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRuntimes {
    /// native/MPICH
    pub native_mpich: Option<f64>,
    /// MANA/MPICH (legacy virtual ids)
    pub mana_mpich: Option<f64>,
    /// MANA+virtId/MPICH
    pub mana_virtid_mpich: Option<f64>,
    /// native/Open MPI
    pub native_ompi: Option<f64>,
    /// MANA+virtId/Open MPI
    pub mana_virtid_ompi: Option<f64>,
    /// native/ExaMPI (Figure 3 only)
    pub native_exampi: Option<f64>,
    /// MANA+virtId/ExaMPI (Figure 3 only)
    pub mana_virtid_exampi: Option<f64>,
}

/// One Table 1 workload plus every reference number the paper attaches to it.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// The application.
    pub app: AppId,
    /// Rank count on a single Discovery node (Table 1).
    pub ranks: usize,
    /// The input/command-line the paper lists (Table 1).
    pub input: &'static str,
    /// Job-wide context switches per second measured in §6.3.
    pub cs_rate_per_sec: f64,
    /// Checkpoint image size per rank, MB (Table 3).
    pub ckpt_mb_per_rank: f64,
    /// Checkpoint time, seconds (Table 3).
    pub ckpt_time_s: f64,
    /// Checkpoint bandwidth, MB/s/rank (Table 3).
    pub ckpt_mb_s_per_rank: f64,
    /// Figure 2 / Figure 3 runtime bars.
    pub paper: PaperRuntimes,
}

impl WorkloadSpec {
    /// Per-rank wrapped-MPI-call rate (calls per rank per second), derived from the
    /// job-wide §6.3 context-switch rate.
    pub fn calls_per_rank_per_sec(&self) -> f64 {
        self.cs_rate_per_sec / self.ranks as f64
    }

    /// Whether the paper ran this application under ExaMPI (Figure 3).
    pub fn exampi_compatible(&self) -> bool {
        self.paper.native_exampi.is_some()
    }
}

/// The five Table 1 workloads, in the order the paper's figures list them.
pub fn single_node_workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            app: AppId::Hpcg,
            ranks: 56,
            input: "--nx=104 --ny=104 --nz=104 --it=50",
            cs_rate_per_sec: 4.7e6,
            ckpt_mb_per_rank: 934.0,
            ckpt_time_s: 72.9,
            ckpt_mb_s_per_rank: 12.8,
            paper: PaperRuntimes {
                native_mpich: Some(174.0),
                mana_mpich: Some(184.0),
                mana_virtid_mpich: Some(173.0),
                native_ompi: Some(166.0),
                mana_virtid_ompi: Some(166.0),
                native_exampi: None,
                mana_virtid_exampi: None,
            },
        },
        WorkloadSpec {
            app: AppId::Lulesh,
            ranks: 27,
            input: "-p -i 100 -s 100",
            cs_rate_per_sec: 1.3e6,
            ckpt_mb_per_rank: 207.0,
            ckpt_time_s: 16.3,
            ckpt_mb_s_per_rank: 12.7,
            paper: PaperRuntimes {
                native_mpich: Some(173.0),
                mana_mpich: Some(184.0),
                mana_virtid_mpich: Some(209.0),
                native_ompi: Some(163.0),
                mana_virtid_ompi: Some(171.0),
                native_exampi: Some(187.4),
                mana_virtid_exampi: Some(180.2),
            },
        },
        WorkloadSpec {
            app: AppId::CoMd,
            ranks: 27,
            input: "-N 10000",
            cs_rate_per_sec: 3.7e6,
            ckpt_mb_per_rank: 32.0,
            ckpt_time_s: 8.9,
            ckpt_mb_s_per_rank: 3.6,
            paper: PaperRuntimes {
                native_mpich: Some(32.8),
                mana_mpich: Some(33.9),
                mana_virtid_mpich: Some(33.7),
                native_ompi: Some(51.5),
                mana_virtid_ompi: Some(57.0),
                native_exampi: Some(44.0),
                mana_virtid_exampi: Some(41.8),
            },
        },
        WorkloadSpec {
            app: AppId::Lammps,
            ranks: 56,
            input: "-in bench/in.lj (run=50000)",
            cs_rate_per_sec: 22.9e6,
            ckpt_mb_per_rank: 42.0,
            ckpt_time_s: 12.8,
            ckpt_mb_s_per_rank: 3.3,
            paper: PaperRuntimes {
                native_mpich: Some(28.9),
                mana_mpich: Some(38.2),
                mana_virtid_mpich: Some(37.6),
                native_ompi: Some(35.5),
                mana_virtid_ompi: Some(48.6),
                native_exampi: None,
                mana_virtid_exampi: None,
            },
        },
        WorkloadSpec {
            app: AppId::Sw4,
            ranks: 56,
            input: "tests/curvimr/energy-1.in",
            cs_rate_per_sec: 12.5e6,
            ckpt_mb_per_rank: 49.0,
            ckpt_time_s: 12.3,
            ckpt_mb_s_per_rank: 4.0,
            paper: PaperRuntimes {
                native_mpich: Some(89.2),
                mana_mpich: Some(103.0),
                mana_virtid_mpich: Some(102.0),
                native_ompi: Some(110.0),
                mana_virtid_ompi: Some(130.0),
                native_exampi: None,
                mana_virtid_exampi: None,
            },
        },
    ]
}

/// One Table 2 workload (Perlmutter, Cray MPI, userspace FSGSBASE available) with the
/// Figure 4 runtime bars.
#[derive(Debug, Clone, PartialEq)]
pub struct PerlmutterSpec {
    /// The application.
    pub app: AppId,
    /// Rank count (Table 2).
    pub ranks: usize,
    /// Input (Table 2).
    pub input: &'static str,
    /// native/Cray MPI runtime, seconds (Figure 4).
    pub native_craympi: f64,
    /// MANA/Cray MPI runtime (legacy virtual ids), seconds.
    pub mana_craympi: f64,
    /// MANA+virtId/Cray MPI runtime, seconds.
    pub mana_virtid_craympi: f64,
}

impl PerlmutterSpec {
    /// Relative overhead of legacy MANA over native, as the paper reports it.
    pub fn paper_mana_overhead(&self) -> f64 {
        (self.mana_craympi - self.native_craympi) / self.native_craympi
    }

    /// Relative overhead of MANA+virtId over native.
    pub fn paper_virtid_overhead(&self) -> f64 {
        (self.mana_virtid_craympi - self.native_craympi) / self.native_craympi
    }
}

/// The three Table 2 workloads of the Perlmutter experiment (Figure 4).
pub fn perlmutter_workloads() -> Vec<PerlmutterSpec> {
    vec![
        PerlmutterSpec {
            app: AppId::CoMd,
            ranks: 64,
            input: "-N 30000",
            native_craympi: 46.1,
            mana_craympi: 48.1,
            mana_virtid_craympi: 48.6,
        },
        PerlmutterSpec {
            app: AppId::Lammps,
            ranks: 64,
            input: "-in bench/in.lj (run=50000)",
            native_craympi: 28.0,
            mana_craympi: 29.5,
            mana_virtid_craympi: 27.6,
        },
        PerlmutterSpec {
            app: AppId::Sw4,
            ranks: 64,
            input: "tests/curvimr/energy-1.in",
            native_craympi: 73.1,
            mana_craympi: 77.1,
            mana_virtid_craympi: 76.2,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_all_five_apps() {
        let specs = single_node_workloads();
        assert_eq!(specs.len(), 5);
        let apps: Vec<AppId> = specs.iter().map(|s| s.app).collect();
        assert_eq!(
            apps,
            [
                AppId::Hpcg,
                AppId::Lulesh,
                AppId::CoMd,
                AppId::Lammps,
                AppId::Sw4
            ]
        );
        // The VASP proxy is deliberately outside the paper's Table 1.
        assert!(!apps.contains(&AppId::Vasp));
        assert!(AppId::ALL.contains(&AppId::Vasp));
        // Rank counts from Table 1.
        assert_eq!(
            specs.iter().find(|s| s.app == AppId::CoMd).unwrap().ranks,
            27
        );
        assert_eq!(
            specs.iter().find(|s| s.app == AppId::Lammps).unwrap().ranks,
            56
        );
    }

    #[test]
    fn only_comd_and_lulesh_run_under_exampi() {
        let specs = single_node_workloads();
        let exampi: Vec<AppId> = specs
            .iter()
            .filter(|s| s.exampi_compatible())
            .map(|s| s.app)
            .collect();
        assert_eq!(exampi, vec![AppId::Lulesh, AppId::CoMd]);
    }

    #[test]
    fn lammps_has_the_highest_cs_rate() {
        let specs = single_node_workloads();
        let lammps = specs.iter().find(|s| s.app == AppId::Lammps).unwrap();
        assert!(specs
            .iter()
            .all(|s| s.cs_rate_per_sec <= lammps.cs_rate_per_sec));
        assert!(lammps.calls_per_rank_per_sec() > 100_000.0);
    }

    #[test]
    fn perlmutter_overheads_are_single_digit() {
        for spec in perlmutter_workloads() {
            assert!(spec.paper_mana_overhead() < 0.06);
            assert!(spec.paper_virtid_overhead() < 0.06);
        }
        // LAMMPS under virtId was actually *faster* than native in the paper.
        let lammps = perlmutter_workloads()
            .into_iter()
            .find(|s| s.app == AppId::Lammps)
            .unwrap();
        assert!(lammps.paper_virtid_overhead() < 0.0);
    }
}
