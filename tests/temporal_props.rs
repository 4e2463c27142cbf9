//! Temporal-store properties, run over every codec backend:
//!
//! * with prediction **off**, each frame file of an `HQTM` directory is
//!   byte-identical to the independent snapshot `write_snapshot` would have
//!   produced for the same timestep — the temporal container is a strict
//!   superset of the snapshot path, not a fork of it;
//! * with prediction **on**, a time-windowed ROI read equals the per-frame
//!   ROI reads, and the serving layer's frame views return the same bytes
//!   as the bare reader at any cache budget.

use hqmr::grid::{synth, Dims3, Field3};
use hqmr::mr::{resample_like, to_adaptive, MultiResData, RoiConfig};
use hqmr::serve::StoreServer;
use hqmr::store::read;
use hqmr::store::temporal::{Prediction, TemporalReader};
use hqmr::workflow::mrc::{Backend, MrcConfig};
use hqmr::workflow::{write_snapshot, TemporalWriter};
use std::path::PathBuf;
use std::sync::Arc;

const STEPS: usize = 4;

/// A small advected sequence poured into a frame-stable block layout.
fn sequence() -> Vec<MultiResData> {
    let frames = synth::advected_sequence(Dims3::cube(16), STEPS, [0.5, 0.25, 0.0], 21);
    let template = to_adaptive(&frames[0], &RoiConfig::new(8, 0.5));
    frames.iter().map(|f| resample_like(&template, f)).collect()
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(backend: Backend) -> MrcConfig {
    // eb relative to the unit-variance GRF's typical range.
    MrcConfig::baseline(0.02).with_backend(backend)
}

#[test]
fn prediction_off_frames_are_bit_identical_to_independent_snapshots() {
    let mrs = sequence();
    for backend in Backend::ALL {
        let cfg = config(backend);
        let dir = fresh_dir(&format!("hqmr_tprops_off_{}", backend.name()));
        let mut writer = TemporalWriter::create(&dir, &cfg, Prediction::Off).unwrap();
        for (t, mr) in mrs.iter().enumerate() {
            let rep = writer.append(t as u64, mr).unwrap();
            assert_eq!(rep.delta_chunks, 0, "{backend:?}: prediction off");

            let snap = dir.join(format!("snap_{t}.bin"));
            write_snapshot(mr, &cfg, &snap).unwrap();
            let independent = std::fs::read(&snap).unwrap();
            let temporal = std::fs::read(dir.join(&rep.file)).unwrap();
            assert_eq!(
                temporal, independent,
                "{backend:?} frame {t}: delta-off frame must be byte-identical \
                 to an independent snapshot"
            );
            std::fs::remove_file(&snap).unwrap();
        }
        // The directory (with the snapshots removed) still opens and serves.
        let reader = TemporalReader::open(&dir).unwrap();
        assert_eq!(reader.frame_count(), STEPS);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn window_roi_equals_per_frame_roi_for_every_backend() {
    let mrs = sequence();
    let (lo, hi) = ([2, 2, 2], [14, 14, 10]);
    for backend in Backend::ALL {
        let cfg = config(backend);
        let dir = fresh_dir(&format!("hqmr_tprops_win_{}", backend.name()));
        let mut writer = TemporalWriter::create(&dir, &cfg, Prediction::delta()).unwrap();
        for (t, mr) in mrs.iter().enumerate() {
            writer.append(t as u64, mr).unwrap();
        }
        let reader = TemporalReader::open(&dir).unwrap();

        let window = reader
            .read_roi_window(0, STEPS - 1, 0, lo, hi, 0.0)
            .unwrap();
        let per_frame: Vec<Field3> = (0..STEPS)
            .map(|t| reader.read_roi(t, 0, lo, hi, 0.0).unwrap())
            .collect();
        assert_eq!(
            window, per_frame,
            "{backend:?}: windowed ROI must equal per-frame ROI reads"
        );

        // A window starting mid-chain re-derives the same bytes from the
        // nearest keyframe.
        let tail = reader
            .read_roi_window(1, STEPS - 1, 0, lo, hi, 0.0)
            .unwrap();
        assert_eq!(tail, per_frame[1..], "{backend:?}: mid-chain window");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn serve_layer_matches_bare_reader_at_every_cache_budget() {
    let mrs = sequence();
    let (lo, hi) = ([0, 0, 0], [16, 16, 8]);
    let iso = 0.0;
    let backend = Backend::SZ3;
    let dir = fresh_dir("hqmr_tprops_serve");
    let mut writer = TemporalWriter::create(&dir, &config(backend), Prediction::delta()).unwrap();
    for (t, mr) in mrs.iter().enumerate() {
        writer.append(t as u64, mr).unwrap();
    }
    let reader = Arc::new(TemporalReader::open(&dir).unwrap());
    let want: Vec<Field3> = (0..STEPS)
        .map(|t| reader.read_roi(t, 0, lo, hi, 0.0).unwrap())
        .collect();
    let levels = reader.frame_reader(0).unwrap().meta().levels.len();
    for budget in [0, 4096, usize::MAX] {
        let server = StoreServer::temporal(Arc::clone(&reader), budget).unwrap();
        let got: Vec<Field3> = (0..STEPS)
            .map(|t| read::read_roi(&server.frame(t).unwrap(), 0, lo, hi, 0.0).unwrap())
            .collect();
        assert_eq!(got, want, "budget {budget}: server must match bare reader");
        for t in 0..STEPS {
            let frame = server.frame(t).unwrap();
            let bare = reader.frame(t).unwrap();
            for level in 0..levels {
                assert_eq!(
                    read::read_level(&frame, level).unwrap(),
                    reader.read_level(t, level).unwrap(),
                    "budget {budget} frame {t} level {level}: read_level"
                );
                assert_eq!(
                    read::read_level_iso(&frame, level, iso).unwrap(),
                    bare.read_level_iso(level, iso).unwrap(),
                    "budget {budget} frame {t} level {level}: read_level_iso"
                );
            }
            assert_eq!(
                read::read_all(&frame).unwrap(),
                reader.read_frame(t).unwrap(),
                "budget {budget} frame {t}: read_all"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
