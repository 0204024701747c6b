//! Unit tests of the single-cloud layout of [`crate::Replicated`].

mod tests {
    use crate::Replicated;
    use hyrd::scheme::Scheme;
    use hyrd_cloudsim::{Fleet, SimClock};
    use hyrd_gcsapi::CloudStorage;

    #[test]
    fn lifecycle_on_one_provider() {
        let fleet = Fleet::standard_four(SimClock::new());
        let mut s = Replicated::amazon_s3(&fleet).unwrap();
        assert_eq!(s.name(), "Single(Amazon S3)");

        s.create_file("/a", &[1u8; 1000]).unwrap();
        let (bytes, report) = s.read_file("/a").unwrap();
        assert_eq!(bytes.len(), 1000);
        assert_eq!(report.op_count(), 1);

        s.update_file("/a", 100, &[9u8; 50]).unwrap();
        let (bytes, _) = s.read_file("/a").unwrap();
        assert_eq!(&bytes[100..150], &[9u8; 50]);

        let (names, _) = s.list_dir("/").unwrap();
        assert_eq!(names, vec!["a"]);

        s.delete_file("/a").unwrap();
        assert!(s.read_file("/a").is_err());
        assert_eq!(s.file_size("/a"), None);
    }

    #[test]
    fn outage_kills_everything_the_papers_problem() {
        let fleet = Fleet::standard_four(SimClock::new());
        let mut s = Replicated::amazon_s3(&fleet).unwrap();
        s.create_file("/a", &[1u8; 100]).unwrap();
        fleet.by_name("Amazon S3").unwrap().force_down();
        assert!(s.read_file("/a").is_err());
        assert!(s.create_file("/b", &[0u8; 10]).is_err());
    }

    #[test]
    fn only_the_chosen_provider_is_touched() {
        let fleet = Fleet::standard_four(SimClock::new());
        let mut s =
            Replicated::single_cloud(&fleet, fleet.by_name("Aliyun").unwrap().id()).unwrap();
        s.create_file("/a", &[1u8; 100]).unwrap();
        s.read_file("/a").unwrap();
        for p in fleet.providers() {
            let s = p.stats();
            if p.name() == "Aliyun" {
                assert!(s.put > 0 && s.get > 0);
            } else {
                // Only the fleet-setup Create op, no data traffic.
                assert_eq!(s.put + s.get + s.remove + s.list, 0, "{}", p.name());
            }
        }
    }
}
