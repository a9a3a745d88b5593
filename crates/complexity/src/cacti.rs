//! CACTI-style access-time and peak-energy surrogate.
//!
//! The paper evaluated access time and peak power with a locally modified
//! CACTI 2.0 at a two-generations-ahead technology and a 10 GHz design
//! point (§4.2.1). CACTI 2.0 itself is unavailable offline, so this module
//! provides an analytical surrogate with the same structural inputs —
//! entries per array `E`, read/write ports per cell `R`/`W` (which set the
//! cell pitch and hence wordline/bitline lengths), and the array count —
//! in power-law form:
//!
//! ```text
//! t_access = kt · E^a · (R+W)^b · (R+2W)^c        (ns, per array)
//! e_peak   = A · ke · E^d · (R+W)^e · (R+2W)^f    (nJ/cycle, whole file)
//! ```
//!
//! The six exponents and two scale factors were fitted **once** by least
//! squares on the five anchor configurations published in Table 1 (the fit
//! script lives in `DESIGN.md`); the surrogate reproduces the published
//! access times within ~2 %, and is monotone
//! in entries, read ports and write ports over the sweep ranges used by
//! the experiment binaries. Treat absolute numbers as CACTI-2.0-equivalents at the
//! paper's 10 GHz technology point, not as predictions for a real process.

use crate::org::RegFileOrg;

/// Calibrated access-time / energy model. See the [module docs](self).
#[derive(Clone, Copy, Debug)]
pub struct CactiModel {
    /// Multiplier applied to both outputs for technology scaling
    /// (1.0 = the paper's CMOS point).
    pub tech_scale: f64,
}

impl Default for CactiModel {
    fn default() -> Self {
        CactiModel { tech_scale: 1.0 }
    }
}

// Fitted on (noWS-M, noWS-D, WS, WSRS, noWS-2) anchors from Table 1.
const T_LNK: f64 = -3.391_330_764_654_505_4;
const T_E: f64 = 0.242_153_831_334_923_44;
const T_RW: f64 = 0.652_933_259_905_149_3;
const T_R2W: f64 = -0.127_035_981_749_356_04;

const E_LNK: f64 = -5.817_404_432_760_146;
const E_E: f64 = 0.426_594_881_313_246_7;
const E_RW: f64 = 4.361_653_219_972_431;
const E_R2W: f64 = -2.688_964_064_795_788_6;

impl CactiModel {
    /// The paper's technology point.
    #[must_use]
    pub fn paper() -> Self {
        Self::default()
    }

    /// Read access time in nanoseconds for one array of `entries` registers
    /// with `reads`/`writes` ports per cell.
    #[must_use]
    pub fn access_time_ns(&self, entries: usize, reads: usize, writes: usize) -> f64 {
        let (e, rw, r2w) = dims(entries, reads, writes);
        self.tech_scale * (T_LNK + T_E * e + T_RW * rw + T_R2W * r2w).exp()
    }

    /// Access time of the organization (its arrays are read in parallel, so
    /// the per-array time governs).
    #[must_use]
    pub fn org_access_time_ns(&self, org: &RegFileOrg) -> f64 {
        self.access_time_ns(org.entries_per_array, org.reads, org.writes)
    }

    /// Peak energy per cycle in nanojoules for the whole register file.
    #[must_use]
    pub fn org_energy_nj(&self, org: &RegFileOrg) -> f64 {
        let (e, rw, r2w) = dims(org.entries_per_array, org.reads, org.writes);
        self.tech_scale * org.arrays as f64 * (E_LNK + E_E * e + E_RW * rw + E_R2W * r2w).exp()
    }
}

fn dims(entries: usize, reads: usize, writes: usize) -> (f64, f64, f64) {
    assert!(entries > 0 && reads > 0, "degenerate array");
    (
        (entries as f64).ln(),
        ((reads + writes) as f64).ln(),
        ((reads + 2 * writes) as f64).ln(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() / b < tol
    }

    #[test]
    fn access_times_match_table1_within_tolerance() {
        let m = CactiModel::paper();
        let refs = [0.71, 0.52, 0.40, 0.35, 0.34];
        for (org, t_ref) in RegFileOrg::paper_set().iter().zip(refs) {
            let t = m.org_access_time_ns(org);
            assert!(close(t, t_ref, 0.025), "{}: {t} vs {t_ref}", org.name);
        }
    }

    #[test]
    fn energies_match_table1_within_tolerance() {
        let m = CactiModel::paper();
        let refs = [3.20, 2.90, 1.70, 1.25, 0.63];
        for (org, e_ref) in RegFileOrg::paper_set().iter().zip(refs) {
            let e = m.org_energy_nj(org);
            assert!(close(e, e_ref, 0.025), "{}: {e} vs {e_ref}", org.name);
        }
    }

    #[test]
    fn monotone_in_entries_and_ports() {
        let m = CactiModel::paper();
        assert!(m.access_time_ns(512, 4, 3) > m.access_time_ns(256, 4, 3));
        assert!(m.access_time_ns(256, 8, 3) > m.access_time_ns(256, 4, 3));
        assert!(m.access_time_ns(256, 4, 6) > m.access_time_ns(256, 4, 3));
        let big = RegFileOrg::wsrs(1024);
        let small = RegFileOrg::wsrs(512);
        assert!(m.org_energy_nj(&big) > m.org_energy_nj(&small));
    }

    #[test]
    fn headline_claims_hold() {
        // §4.2.2: vs noWS-D, WSRS more than halves power and cuts access
        // time by more than a third.
        let m = CactiModel::paper();
        let d = RegFileOrg::nows_distributed(256);
        let w = RegFileOrg::wsrs(512);
        assert!(m.org_energy_nj(&d) / m.org_energy_nj(&w) > 2.0);
        assert!(m.org_access_time_ns(&w) < m.org_access_time_ns(&d) * (2.0 / 3.0) * 1.02);
        // vs noWS-2: same range access time, roughly double the power.
        let two = RegFileOrg::nows_two_cluster(128);
        let t_ratio = m.org_access_time_ns(&w) / m.org_access_time_ns(&two);
        assert!((0.9..1.1).contains(&t_ratio));
    }

    #[test]
    fn tech_scale_scales_linearly() {
        let m1 = CactiModel { tech_scale: 1.0 };
        let m2 = CactiModel { tech_scale: 0.5 };
        let org = RegFileOrg::wsrs(512);
        assert!(close(
            m2.org_access_time_ns(&org) * 2.0,
            m1.org_access_time_ns(&org),
            1e-9
        ));
    }
}
