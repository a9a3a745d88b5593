//! The paper's quantitative hardware claims, checked against the models —
//! the Table 1 / §4 material as executable assertions.

use wsrs::complexity::{
    bypass_sources, pipeline_cycles, reg_bit_area_w2, table1, total_area_w2, wakeup_comparators,
    CactiModel, RegFileOrg,
};
use wsrs::core::{AllocPolicy, SimConfig};
use wsrs::regfile::RenameStrategy;
use wsrs_isa::RegClass;

#[test]
fn table1_discrete_columns_reproduce_exactly() {
    let ours = table1::generate();
    let paper = table1::paper_reference();
    assert_eq!(ours.len(), 5);
    for (o, p) in ours.iter().zip(&paper) {
        assert_eq!(
            (o.registers, o.copies, o.ports, o.subfiles),
            (p.registers, p.copies, p.ports, p.subfiles),
            "{}",
            o.name
        );
        assert_eq!(o.bit_area_w2, p.bit_area_w2, "{}", o.name);
        assert_eq!(
            (o.pipe_10ghz, o.bypass_10ghz, o.pipe_5ghz, o.bypass_5ghz),
            (p.pipe_10ghz, p.bypass_10ghz, p.pipe_5ghz, p.bypass_5ghz),
            "{}",
            o.name
        );
    }
}

#[test]
fn abstract_claims_hold() {
    // "dramatic reduction of the total silicon area devoted to the
    // physical register file (by a factor four to six)"
    let conv_d = RegFileOrg::nows_distributed(256);
    let conv_m = RegFileOrg::nows_monolithic(256);
    let wsrs = RegFileOrg::wsrs(512);
    let vs_d = total_area_w2(&conv_d, 64) as f64 / total_area_w2(&wsrs, 64) as f64;
    let vs_m = total_area_w2(&conv_m, 64) as f64 / total_area_w2(&wsrs, 64) as f64;
    assert!(vs_d > 6.0, "vs distributed: {vs_d}");
    assert!(vs_m >= 4.0, "vs monolithic: {vs_m}");

    // "power consumption is more than halved and read access time
    // shortened by one third"
    let m = CactiModel::paper();
    assert!(m.org_energy_nj(&conv_d) / m.org_energy_nj(&wsrs) > 2.0);
    assert!(m.org_access_time_ns(&wsrs) / m.org_access_time_ns(&conv_d) < 0.70);
}

#[test]
fn wsrs_wakeup_and_bypass_equal_a_4way_machine() {
    // "the complexities of the wake-up logic entry and bypass point are
    // equivalent to the ones found with a conventional 4-way issue
    // processor"
    assert_eq!(wakeup_comparators(6), 12); // WSRS 8-way = 4-way conventional
    let wsrs = RegFileOrg::wsrs(512);
    let m = CactiModel::paper();
    let p = pipeline_cycles(m.org_access_time_ns(&wsrs), 10.0);
    let two_cluster = RegFileOrg::nows_two_cluster(128);
    let p2 = pipeline_cycles(m.org_access_time_ns(&two_cluster), 10.0);
    assert_eq!(
        bypass_sources(p, wsrs.bypass_buses),
        bypass_sources(p2, two_cluster.bypass_buses)
    );
}

#[test]
fn scaling_vs_two_cluster_matches_section_4_2_2() {
    // "a) read access time in the same range, b) total silicon area only
    // increased by 75%, c) power consumption only doubles"
    let m = CactiModel::paper();
    let wsrs = RegFileOrg::wsrs(512);
    let two = RegFileOrg::nows_two_cluster(128);
    let area_ratio = total_area_w2(&wsrs, 64) as f64 / total_area_w2(&two, 64) as f64;
    assert!((area_ratio - 1.75).abs() < 1e-9);
    let t_ratio = m.org_access_time_ns(&wsrs) / m.org_access_time_ns(&two);
    assert!((0.9..1.1).contains(&t_ratio), "access ratio {t_ratio}");
    let e_ratio = m.org_energy_nj(&wsrs) / m.org_energy_nj(&two);
    assert!((1.7..2.3).contains(&e_ratio), "energy ratio {e_ratio}");
}

#[test]
fn section_2_3_sizing_rule() {
    // §2.3/§2.4: per-subset size >= logical registers prevents the rename
    // deadlock; the paper's own 384/512 configurations satisfy it for the
    // 80-register SPARC window file.
    let renamer = |regs| {
        SimConfig::wsrs(
            regs,
            AllocPolicy::RandomCommutative,
            RenameStrategy::ExactCount,
        )
        .renamer()
    };
    for regs in [384, 512] {
        let cfg = renamer(regs);
        assert_eq!(cfg.subsets, 4);
        assert!(cfg.statically_deadlock_free(RegClass::Int), "{regs}");
        assert!(cfg.statically_deadlock_free(RegClass::Fp), "{regs}");
    }
    // 256 integer registers over four subsets (64 each) would not be.
    assert!(!renamer(256).statically_deadlock_free(RegClass::Int));
}

#[test]
fn wsrs_needs_more_registers_but_less_area_per_register() {
    // The paper's trade: 2x the registers at a fraction of the per-bit
    // area (1120 -> 140 w² per bit vs the monolithic file).
    let mono = RegFileOrg::nows_monolithic(256);
    let wsrs = RegFileOrg::wsrs(512);
    assert!(wsrs.total_regs == 2 * mono.total_regs);
    assert_eq!(reg_bit_area_w2(&mono) / reg_bit_area_w2(&wsrs), 8);
}

#[test]
fn seven_cluster_extension_preserves_per_register_complexity() {
    // §7: extendable to 7 clusters with the same two (4R,3W) copies.
    let seven = RegFileOrg::wsrs_seven_cluster(896);
    let four = RegFileOrg::wsrs(512);
    assert_eq!(seven.copies, four.copies);
    assert_eq!((seven.reads, seven.writes), (four.reads, four.writes));
    assert_eq!(
        wakeup_comparators(seven.bypass_buses),
        wakeup_comparators(four.bypass_buses)
    );
}
