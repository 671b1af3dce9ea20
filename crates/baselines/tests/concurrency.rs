//! A baseline shared by several client threads behaves exactly like its
//! single-threaded self: each client's files read back intact, both from
//! the client and through the shared handle afterwards.

use std::sync::Arc;

use baselines::Ext4Like;
use fskit::{FileSystem, FileSystemExt};
use mssd::{DramMode, Mssd, MssdConfig};

#[test]
fn threaded_clients_round_trip_on_the_ext4_baseline() {
    let dev = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
    let fs = Ext4Like::format(Arc::clone(&dev));
    let body = |c: usize| vec![c as u8 ^ 0x5C; 1024 + c * 64];

    std::thread::scope(|s| {
        for c in 0..8 {
            let fs = Arc::clone(&fs);
            s.spawn(move || {
                let path = format!("/base{c}");
                fs.write_file(&path, &body(c)).unwrap();
                assert_eq!(fs.read_file(&path).unwrap(), body(c));
                fs.sync().unwrap();
            });
        }
    });

    for c in 0..8 {
        assert_eq!(fs.read_file(&format!("/base{c}")).unwrap(), body(c));
    }
    assert_eq!(fs.readdir("/").unwrap().len(), 8);
}
