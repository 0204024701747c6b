//! Unit tests of the DuraCloud layout of [`crate::Replicated`].

mod tests {
    use crate::Replicated;
    use hyrd::scheme::Scheme;
    use hyrd_cloudsim::{Fleet, SimClock};
    use hyrd_gcsapi::CloudStorage;

    fn setup() -> (Fleet, Replicated) {
        let fleet = Fleet::standard_four(SimClock::new());
        let d = Replicated::duracloud_standard(&fleet).unwrap();
        (fleet, d)
    }

    #[test]
    fn writes_land_on_both_replicas_serially() {
        let (fleet, mut d) = setup();
        let report = d.create_file("/a", &[5u8; 200 * 1024]).unwrap();
        // Serial composition: latency is the sum of both replica puts
        // (plus metadata), so it exceeds either provider's single put.
        let s3 = fleet.by_name("Amazon S3").unwrap();
        let azure = fleet.by_name("Windows Azure").unwrap();
        assert!(s3.stats().put >= 1);
        assert!(azure.stats().put >= 1);
        let data_puts: Vec<_> = report.ops.iter().filter(|o| o.bytes_in >= 200 * 1024).collect();
        assert_eq!(data_puts.len(), 2);
        let sum: std::time::Duration = data_puts.iter().map(|o| o.latency).sum();
        assert!(report.latency >= sum, "writes are synchronized (serial)");
    }

    #[test]
    fn reads_come_from_the_primary() {
        let (fleet, mut d) = setup();
        d.create_file("/a", &[5u8; 1024]).unwrap();
        let (_, report) = d.read_file("/a").unwrap();
        let s3 = fleet.by_name("Amazon S3").unwrap();
        assert_eq!(report.ops[0].provider, s3.id(), "primary serves reads");
        // Secondary takes over only when the primary is down.
        s3.force_down();
        let (_, report) = d.read_file("/a").unwrap();
        assert_eq!(report.ops[0].provider, fleet.by_name("Windows Azure").unwrap().id());
        s3.restore();
    }

    #[test]
    fn outage_failover_and_faster_writes() {
        let (fleet, mut d) = setup();
        d.create_file("/a", &[5u8; 100 * 1024]).unwrap();
        let normal_write = d.create_file("/b", &[5u8; 100 * 1024]).unwrap();

        fleet.by_name("Windows Azure").unwrap().force_down();
        // Reads fail over to S3.
        let (bytes, report) = d.read_file("/a").unwrap();
        assert_eq!(bytes.len(), 100 * 1024);
        assert_eq!(report.ops[0].provider, fleet.by_name("Amazon S3").unwrap().id());
        // Writes during the outage are *faster* (single copy) — the
        // paper's Figure 6 observation.
        let outage_write = d.create_file("/c", &[5u8; 100 * 1024]).unwrap();
        assert!(outage_write.latency < normal_write.latency);
        assert!(d.pending_log_len() > 0);

        // Consistency update on return.
        fleet.by_name("Windows Azure").unwrap().restore();
        let azure_id = fleet.by_name("Windows Azure").unwrap().id();
        let (rep, _) = d.recover_provider(azure_id).unwrap();
        assert!(rep.puts_replayed > 0);
        assert_eq!(d.pending_log_len(), 0);

        // The recovered copy serves when S3 goes down.
        fleet.by_name("Amazon S3").unwrap().force_down();
        let (bytes, _) = d.read_file("/c").unwrap();
        assert_eq!(bytes.len(), 100 * 1024);
    }

    #[test]
    fn storage_overhead_is_2x() {
        let (fleet, mut d) = setup();
        d.create_file("/a", &[1u8; 1_000_000]).unwrap();
        // 2 MB of data + 2 small metadata blocks.
        let stored = fleet.total_stored_bytes();
        assert!((2_000_000..2_010_000).contains(&stored), "stored={stored}");
    }

    #[test]
    fn update_roundtrip() {
        let (_fleet, mut d) = setup();
        d.create_file("/a", &[1u8; 4096]).unwrap();
        d.update_file("/a", 1000, &[9u8; 100]).unwrap();
        let (bytes, _) = d.read_file("/a").unwrap();
        assert_eq!(&bytes[1000..1100], &[9u8; 100][..]);
        assert_eq!(bytes.len(), 4096);
    }
}
