//! Instruction-level cycle model of the coprocessor.
//!
//! Each instruction's cost splits into:
//!
//! * a **datapath** term derived from first principles (schedule lengths,
//!   pipeline initiation intervals, core counts) — see the per-instruction
//!   methods; and
//! * a calibrated **overhead** term (pipeline fill, instruction decode,
//!   interconnect latency visible from the Arm's cycle counter), chosen so
//!   the modeled totals land on Table II. The raw datapath numbers are kept
//!   visible so EXPERIMENTS.md can report both.
//!
//! All values are FPGA cycles; convert with [`crate::clock::ClockConfig`].
//!
//! The model is independent of the host's kernel backend: the cycle
//! counts attribute time to the *coprocessor's* NTT/pointwise datapaths,
//! so whether `hefv_math` dispatches to scalar or AVX2 kernels on the
//! host only changes how fast the functional simulation runs, never the
//! modeled kernel splits reported per instruction.

use serde::{Deserialize, Serialize};

/// The coprocessor's instruction set (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Instr {
    /// Forward NTT of one polynomial batch (all mapped RPAUs in parallel).
    Ntt,
    /// Inverse NTT of one polynomial batch.
    InverseNtt,
    /// Coefficient-wise multiplication of one batch.
    CoeffMul,
    /// Coefficient-wise addition/subtraction of one batch.
    CoeffAdd,
    /// Memory rearrange (the bit-reversal repacking around transforms).
    MemoryRearrange,
    /// `Lift q→Q` of one polynomial (both lift cores).
    Lift,
    /// `Scale Q→q` of one polynomial (both scale cores, reusing lift).
    Scale,
}

impl Instr {
    /// All instructions in Table II order.
    pub const ALL: [Instr; 7] = [
        Instr::Ntt,
        Instr::InverseNtt,
        Instr::CoeffMul,
        Instr::CoeffAdd,
        Instr::MemoryRearrange,
        Instr::Lift,
        Instr::Scale,
    ];

    /// The paper's name for the instruction.
    pub fn name(&self) -> &'static str {
        match self {
            Instr::Ntt => "NTT",
            Instr::InverseNtt => "Inverse-NTT",
            Instr::CoeffMul => "Coeff. wise Multiplication",
            Instr::CoeffAdd => "Coeff. wise Addition",
            Instr::MemoryRearrange => "Memory Rearrange",
            Instr::Lift => "Lift q->Q (2 cores)",
            Instr::Scale => "Scale Q->q (2 cores)",
        }
    }
}

/// Cycle model for the HPS (fast) coprocessor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Ring degree.
    pub n: usize,
    /// Butterfly cores per RPAU (the paper instantiates 2 — §V-A2).
    pub butterfly_cores: usize,
    /// Parallel `Lift`/`Scale` cores (2 in the fast design).
    pub lift_cores: usize,
    /// Arithmetic pipeline depth (mult → sliding-window reduce → add/sub).
    pub pipeline_depth: u64,
    /// Block-pipeline initiation interval of the HPS lift/scale units:
    /// one coefficient result per 7 cycles (§V-B2: "a processing time of
    /// seven cycles at most, since the output is a set of seven residues").
    pub hps_block_ii: u64,
    /// Calibrated per-instruction overhead (decode + fill + Arm-visible
    /// dispatch), FPGA cycles, in [`Instr::ALL`] order.
    pub overheads: [u64; 7],
}

impl Default for CostModel {
    /// The paper's configuration, calibrated to Table II.
    fn default() -> Self {
        CostModel {
            n: 4096,
            butterfly_cores: 2,
            lift_cores: 2,
            pipeline_depth: 12,
            hps_block_ii: 7,
            // datapath + overhead = Table II cycles / 6 (Arm @1.2GHz,
            // FPGA @200MHz). See EXPERIMENTS.md for the derivation.
            overheads: [2_165, 3_551, 550, 655, 60, 2_152, 2_140],
        }
    }
}

impl CostModel {
    /// Number of butterfly stages.
    fn stages(&self) -> u64 {
        self.n.trailing_zeros() as u64
    }

    /// Cycles of one NTT stage: `n/2` paired words through
    /// `butterfly_cores` cores, one word per core per cycle.
    fn stage_cycles(&self) -> u64 {
        (self.n / 2) as u64 / self.butterfly_cores as u64
    }

    /// First-principles datapath cycles for an instruction.
    pub fn datapath_cycles(&self, i: Instr) -> u64 {
        let n = self.n as u64;
        // Coefficient-wise ops: each core's single multiplier/adder handles
        // one coefficient per cycle, so n coefficients stream through the
        // butterfly cores in n/cores cycles.
        let stream = n / self.butterfly_cores as u64;
        match i {
            // log2(n) stages, each n/4 dual-issue cycles plus a drain.
            Instr::Ntt => self.stages() * (self.stage_cycles() + self.pipeline_depth),
            // Same plus the n^{-1} scaling pass.
            Instr::InverseNtt => {
                self.stages() * (self.stage_cycles() + self.pipeline_depth) + self.stage_cycles()
            }
            // One multiplier result per core per cycle.
            Instr::CoeffMul => stream + self.pipeline_depth,
            Instr::CoeffAdd => stream + self.pipeline_depth,
            // Bit-reversal repack: one word moved per cycle per bank pair.
            Instr::MemoryRearrange => n + self.pipeline_depth,
            // Block pipeline: one coefficient per II per core, plus fill
            // of the five pipeline blocks.
            Instr::Lift => {
                let per_core = (self.n as u64).div_ceil(self.lift_cores as u64);
                per_core * self.hps_block_ii + 5 * self.hps_block_ii
            }
            // Scale reuses the lift datapath for its second step; the
            // block pipeline hides all but the extra fill (§VI-A: "the
            // overall computation time for Scale remains almost equal to
            // Lift").
            Instr::Scale => {
                let per_core = (self.n as u64).div_ceil(self.lift_cores as u64);
                per_core * self.hps_block_ii + 10 * self.hps_block_ii
            }
        }
    }

    /// Modeled instruction cycles (datapath + calibrated overhead) — the
    /// quantity that corresponds to Table II after Arm-clock conversion.
    pub fn instr_cycles(&self, i: Instr) -> u64 {
        let idx = Instr::ALL.iter().position(|&x| x == i).unwrap();
        self.datapath_cycles(i) + self.overheads[idx]
    }

    /// Cycles for the high-level `Add` operation: two `CoeffAdd`
    /// instructions, block-pipelined so the second's overhead partially
    /// overlaps the first (calibrated against Table I's 31,339 Arm
    /// cycles).
    pub fn add_op_cycles(&self) -> u64 {
        2 * self.datapath_cycles(Instr::CoeffAdd) + 1_103
    }
}

/// Cycle model for the traditional-CRT (non-HPS) coprocessor of §VI-C:
/// 225 MHz, four single-core `Lift`/`Scale` units, relinearization keys a
/// third of the size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TradCostModel {
    /// The shared polynomial-arithmetic model (same RPAUs as the fast
    /// design — §VI-C: "The polynomial arithmetic unit in the faster and
    /// slower architectures are similar").
    pub poly: CostModel,
    /// Per-coefficient initiation interval of the long-integer `Lift`
    /// (calibrated: 1.68 ms at 225 MHz for one core over 4096
    /// coefficients → 92 cycles).
    pub lift_ii: u64,
    /// Per-coefficient initiation interval of the long-integer `Scale`
    /// (4.3 ms at 225 MHz → 236 cycles; the reciprocal is twice as wide
    /// and the dividend twice as long, "almost four times larger" §V-C).
    pub scale_ii: u64,
    /// Relinearization digits (2: "three times smaller relinearization
    /// key").
    pub relin_digits: usize,
}

impl Default for TradCostModel {
    fn default() -> Self {
        TradCostModel {
            poly: CostModel::default(),
            lift_ii: 92,
            scale_ii: 236,
            relin_digits: 2,
        }
    }
}

impl TradCostModel {
    /// Cycles for one single-core traditional `Lift` call.
    pub fn lift_cycles(&self) -> u64 {
        self.poly.n as u64 * self.lift_ii
    }

    /// Cycles for one single-core traditional `Scale` call.
    pub fn scale_cycles(&self) -> u64 {
        self.poly.n as u64 * self.scale_ii
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockConfig;

    /// Table II, as (instruction, calls per Mult, Arm cycles, µs).
    pub const TABLE2: [(Instr, u32, u64, f64); 7] = [
        (Instr::Ntt, 14, 87_582, 73.0),
        (Instr::InverseNtt, 8, 102_043, 85.0),
        (Instr::CoeffMul, 20, 15_662, 13.1),
        (Instr::CoeffAdd, 26, 16_292, 13.6),
        (Instr::MemoryRearrange, 22, 25_006, 20.8),
        (Instr::Lift, 4, 99_137, 82.6),
        (Instr::Scale, 3, 99_274, 82.7),
    ];

    #[test]
    fn calibrated_cycles_match_table2() {
        let m = CostModel::default();
        let clocks = ClockConfig::default();
        for (i, _, paper_arm, _) in TABLE2 {
            let arm = clocks.fpga_to_arm_cycles(m.instr_cycles(i));
            let ratio = arm as f64 / paper_arm as f64;
            assert!(
                (0.999..=1.001).contains(&ratio),
                "{}: modeled {arm} vs paper {paper_arm}",
                i.name()
            );
        }
    }

    #[test]
    fn datapath_dominates_overhead() {
        // The calibration constants must stay small relative to the
        // first-principles term — otherwise the model is curve-fitting.
        let m = CostModel::default();
        for i in Instr::ALL {
            let d = m.datapath_cycles(i);
            let total = m.instr_cycles(i);
            assert!(
                d as f64 / total as f64 > 0.75,
                "{}: datapath {d} of {total}",
                i.name()
            );
        }
    }

    #[test]
    fn ntt_datapath_formula() {
        let m = CostModel::default();
        // 12 stages × (1024 + 12) = 12,432
        assert_eq!(m.datapath_cycles(Instr::Ntt), 12 * (1024 + 12));
        assert_eq!(
            m.datapath_cycles(Instr::InverseNtt),
            12 * (1024 + 12) + 1024
        );
    }

    #[test]
    fn add_op_matches_table1() {
        let m = CostModel::default();
        let clocks = ClockConfig::default();
        let arm = clocks.fpga_to_arm_cycles(m.add_op_cycles());
        let ratio = arm as f64 / 31_339.0;
        assert!((0.999..=1.001).contains(&ratio), "Add in HW: {arm}");
    }

    #[test]
    fn trad_lift_scale_match_section_6c() {
        let m = TradCostModel::default();
        let clocks = ClockConfig::non_hps();
        // §VI-C: 1.68 ms and 4.3 ms at 225 MHz for one core.
        let lift_ms = clocks.fpga_cycles_to_us(m.lift_cycles()) / 1000.0;
        let scale_ms = clocks.fpga_cycles_to_us(m.scale_cycles()) / 1000.0;
        assert!((lift_ms - 1.68).abs() / 1.68 < 0.01, "lift {lift_ms}");
        assert!((scale_ms - 4.3).abs() / 4.3 < 0.01, "scale {scale_ms}");
    }

    #[test]
    fn hps_lift_is_an_order_faster_than_traditional() {
        // The headline of the HPS optimization: compare per-call times.
        let fast = CostModel::default();
        let slow = TradCostModel::default();
        let fast_us = ClockConfig::default().fpga_cycles_to_us(fast.instr_cycles(Instr::Lift));
        let slow_us = ClockConfig::non_hps().fpga_cycles_to_us(slow.lift_cycles());
        assert!(
            slow_us / fast_us > 15.0,
            "traditional {slow_us:.0}µs vs HPS {fast_us:.0}µs"
        );
    }
}
