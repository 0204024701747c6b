//! Unit tests of the DepSky layout of [`crate::Replicated`].

mod tests {
    use crate::Replicated;
    use hyrd::scheme::Scheme;
    use hyrd_cloudsim::{Fleet, SimClock};
    use hyrd_gcsapi::CloudStorage;

    fn setup() -> (Fleet, Replicated) {
        let fleet = Fleet::standard_four(SimClock::new());
        let d = Replicated::depsky(&fleet).unwrap();
        (fleet, d)
    }

    #[test]
    fn replicates_on_every_provider() {
        let (fleet, mut d) = setup();
        d.create_file("/a", &[1u8; 10_000]).unwrap();
        for p in fleet.providers() {
            assert!(p.stats().put >= 1, "{}", p.name());
        }
        // 4x storage (plus metadata).
        assert!(fleet.total_stored_bytes() >= 40_000);
    }

    #[test]
    fn write_latency_is_quorum_not_slowest() {
        let (fleet, mut d) = setup();
        let report = d.create_file("/a", &vec![1u8; 256 * 1024]).unwrap();
        let mut lats: Vec<_> =
            report.ops.iter().filter(|o| o.bytes_in >= 256 * 1024).map(|o| o.latency).collect();
        lats.sort();
        assert_eq!(lats.len(), 4);
        // Latency ≥ 3rd fastest (quorum of 3) but < the slowest + meta.
        assert!(report.latency >= lats[2]);
        let _ = fleet;
    }

    #[test]
    fn survives_one_outage_reads_from_fastest_survivor() {
        let (fleet, mut d) = setup();
        let data = vec![2u8; 50_000];
        d.create_file("/a", &data).unwrap();
        fleet.by_name("Aliyun").unwrap().force_down();
        let (bytes, report) = d.read_file("/a").unwrap();
        assert_eq!(&bytes[..], &data[..]);
        assert_eq!(
            report.ops[0].provider,
            fleet.by_name("Windows Azure").unwrap().id(),
            "next-fastest replica serves"
        );
    }

    #[test]
    fn quorum_loss_still_writes_but_slowly() {
        let (fleet, mut d) = setup();
        fleet.by_name("Aliyun").unwrap().force_down();
        fleet.by_name("Windows Azure").unwrap().force_down();
        // Only 2 of 4 live: below the majority quorum of 3.
        let report = d.create_file("/a", &[1u8; 1024]).unwrap();
        assert!(report.op_count() >= 2);
        let (bytes, _) = d.read_file("/a").unwrap();
        assert_eq!(bytes.len(), 1024);
    }

    #[test]
    fn update_roundtrip() {
        let (_fleet, mut d) = setup();
        d.create_file("/a", &[0u8; 2048]).unwrap();
        d.update_file("/a", 10, &[7u8; 20]).unwrap();
        let (bytes, _) = d.read_file("/a").unwrap();
        assert_eq!(&bytes[10..30], &[7u8; 20][..]);
    }
}
