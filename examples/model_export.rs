//! Train a model, translate it to the embedded byte format, write it to
//! disk, and reload it — the offline half of the paper's deployment
//! workflow ("we then translate the prediction function of the trained
//! model into C code").
//!
//! Run: `cargo run --release --example model_export`

use ml::embedded::EmbeddedModel;
use ml::DetectorBackend;
use physio_sim::subject::bank;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::trainer::train_for_subject;
use std::fs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let subjects = bank();
    let config = SiftConfig {
        train_s: 120.0,
        ..SiftConfig::default()
    };

    let out_dir = std::env::temp_dir().join("sift-models");
    fs::create_dir_all(&out_dir)?;

    println!("training and exporting all three versions for {}…\n", subjects[0].name);
    for version in Version::ALL {
        let model = train_for_subject(&subjects, 0, version, &config, 7)?;
        let embedded = model.embedded();
        let bytes = embedded.encode();
        let path = out_dir.join(format!("{}-{version}.siftmdl", subjects[0].name));
        fs::write(&path, &bytes)?;
        println!(
            "{version:<11} -> {} ({} bytes: {} features, scaler + hyperplane)",
            path.display(),
            bytes.len(),
            embedded.dim()
        );

        // Reload and verify bit-exactness — what the firmware build does
        // before flashing.
        let reloaded = EmbeddedModel::decode(&fs::read(&path)?)?;
        assert_eq!(&reloaded, embedded);
        println!("             reload verified: models identical");

        // Demonstrate tamper detection on the stored artifact.
        let mut corrupted = bytes.clone();
        corrupted[9] ^= 0xFF;
        match EmbeddedModel::decode(&corrupted) {
            Err(e) => println!("             corrupted copy rejected: {e}"),
            Ok(_) => println!("             corrupted copy decoded (header untouched)"),
        }
        println!();
    }
    Ok(())
}
