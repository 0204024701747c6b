//! NCCloud-lite: NCCloud's rate-1/2 layout in its 4-cloud configuration,
//! as a systematic RS(2, 4).
//!
//! NCCloud (§V) "is built on top of network-coding-based storage schemes
//! called regenerating codes with an emphasis on storage repair". Its
//! published configuration stores an object as `n = 4` fragments of which
//! any `k = 2` reconstruct (rate 1/2, double the storage of the object).
//!
//! This "lite" reproduction keeps the layout and the repair orientation
//! but uses a systematic RS(2, 4) rather than the functional-MSR code:
//! repairing one provider here reads 2 fragments (= 1.0x the object,
//! 2x amplification) versus RAID5's 3 fragments (3x amplification);
//! the genuine FMSR would read 3 *half-fragments* (1.5x amplification).
//! The layout-level ordering — NCCloud repairs cheaper than RACS — is
//! preserved, which is what Table I's "Moderate recovery" row claims.

use hyrd::scheme::{SchemeError, SchemeResult};
use hyrd_cloudsim::Fleet;
use hyrd_gfec::ReedSolomon;

use crate::ecbase::EcEverything;

/// RS(2,4)-across-the-fleet (NCCloud's 4-cloud shape).
pub type NcCloudLite = EcEverything<ReedSolomon>;

impl NcCloudLite {
    /// Builds the scheme; requires a 4-provider fleet (the NCCloud
    /// configuration).
    pub fn new(fleet: &Fleet) -> SchemeResult<Self> {
        let code = ReedSolomon::new(2, 4).map_err(SchemeError::from)?;
        EcEverything::with_code(fleet, code, "NCCloud-lite")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::racs::Racs;
    use hyrd::Scheme;
    use hyrd_cloudsim::SimClock;
    use hyrd_gcsapi::CloudStorage;

    fn setup() -> (Fleet, NcCloudLite) {
        let fleet = Fleet::standard_four(SimClock::new());
        let n = NcCloudLite::new(&fleet).unwrap();
        (fleet, n)
    }

    #[test]
    fn roundtrip_and_double_storage() {
        let (fleet, mut n) = setup();
        let data = vec![4u8; 2_000_000]; // above the 1 MB strip unit
        n.create_file("/f", &data).unwrap();
        let (bytes, report) = n.read_file("/f").unwrap();
        assert_eq!(&bytes[..], &data[..]);
        assert_eq!(report.op_count(), 2, "k = 2 fragments per read");
        // Rate 1/2 → ~2x storage (metadata strips add a little).
        let stored = fleet.total_stored_bytes() as f64;
        assert!(stored / 2e6 > 1.95 && stored / 2e6 < 2.2, "{stored}");
    }

    #[test]
    fn survives_two_concurrent_outages() {
        let (fleet, mut n) = setup();
        let data = vec![8u8; 3_000_000];
        n.create_file("/f", &data).unwrap();
        fleet.by_name("Amazon S3").unwrap().force_down();
        fleet.by_name("Aliyun").unwrap().force_down();
        let (bytes, _) = n.read_file("/f").unwrap();
        assert_eq!(&bytes[..], &data[..], "RS(2,4) tolerates two outages");
    }

    #[test]
    fn repair_amplification_beats_racs() {
        let fleet_nc = Fleet::standard_four(SimClock::new());
        let mut nc = NcCloudLite::new(&fleet_nc).unwrap();
        let fleet_racs = Fleet::standard_four(SimClock::new());
        let mut racs = Racs::new(&fleet_racs).unwrap();

        for i in 0..4 {
            // Large files, so both schemes use the full-striping layout.
            let data = vec![i as u8; 6_000_000];
            nc.create_file(&format!("/f{i}"), &data).unwrap();
            racs.create_file(&format!("/f{i}"), &data).unwrap();
        }
        let (t_nc, _) = nc.repair_provider(fleet_nc.by_name("Rackspace").unwrap().id()).unwrap();
        let (t_racs, _) =
            racs.repair_provider(fleet_racs.by_name("Rackspace").unwrap().id()).unwrap();
        // Large-fragment repair amplification: RS(2,4) reads 2 fragments
        // per rebuild, RAID5 reads 3 (metadata strips perturb slightly).
        assert!(t_nc.amplification() < 2.3, "{}", t_nc.amplification());
        assert!(t_racs.amplification() > 2.6, "{}", t_racs.amplification());
        assert!(t_nc.amplification() < t_racs.amplification());
    }
}
