//! Serial per-chunk pass over open stores: the read-side layer breakdown
//! (fetch + CRC, codec decode, pad strip + slab extract, Huffman decode)
//! shared by the `scan` and `viewer` traced runs.

use crate::trace::{timed, Tracer};
use crate::util::{mean, Metrics, MB};
use hqmr_codec::{huffman_decode, tag, unpack_maybe_rle, Container};
use hqmr_grid::{Dims3, Field3};
use hqmr_store::{codec_for_id, StoreReader};
use std::collections::BTreeMap;

#[derive(Default)]
struct CodecCost {
    decompress_us: Vec<f64>,
    decoded_bytes: f64,
}

/// Runs `reps` rounds of serial passes over every chunk of every store and
/// adds the read-side per-layer metrics to `out`. Each round makes one pass
/// per call (`decode_chunk`, `fetch_chunk_bytes`, codec decompress, Huffman
/// decode), so every call meets the caches the same way. Returns the number
/// of chunk operations that failed.
pub fn measure(stores: &[&StoreReader], tr: &Tracer, reps: usize, out: &mut Metrics) -> u64 {
    let mut failed = 0;
    let mut fetch_us = Vec::new();
    let mut decode_us = Vec::new();
    let mut huffman_us = Vec::new();
    let mut per_codec: BTreeMap<&'static str, CodecCost> = BTreeMap::new();
    let mut scratch = Field3::zeros(Dims3::new(0, 0, 0));
    for _ in 0..reps {
        for reader in stores {
            let codec = codec_for_id(reader.meta().codec_id).expect("store codec is registered");
            let (span_name, entropy_coded) = match codec.name() {
                "sz3" => ("sz3.decompress_into", true),
                "sz2" => ("sz2.decompress_into", true),
                "zfp" => ("zfp.decompress_into", false),
                other => panic!("no metrics defined for codec {other}"),
            };
            let keys: Vec<(usize, usize)> = reader
                .meta()
                .levels
                .iter()
                .enumerate()
                .flat_map(|(l, lm)| (0..lm.chunks.len()).map(move |c| (l, c)))
                .collect();
            for &(level, block) in &keys {
                let (res, us) = timed(Some(tr), "store.decode_chunk", 0, 0, || {
                    reader.decode_chunk(level, block)
                });
                match res {
                    Ok(_) => decode_us.push(us),
                    Err(_) => failed += 1,
                }
            }
            let mut fetched = Vec::with_capacity(keys.len());
            for &(level, block) in &keys {
                let (res, us) = timed(Some(tr), "store.fetch_chunk_bytes", 0, 0, || {
                    reader.fetch_chunk_bytes(level, block)
                });
                match res {
                    Ok(bytes) => {
                        fetch_us.push(us);
                        fetched.push(bytes);
                    }
                    Err(_) => failed += 1,
                }
            }
            let cost = per_codec.entry(codec.name()).or_default();
            for bytes in &fetched {
                let (res, us) = timed(Some(tr), span_name, 0, 0, || {
                    codec.decompress_into(bytes, &mut scratch)
                });
                match res {
                    Ok(()) => {
                        cost.decompress_us.push(us);
                        cost.decoded_bytes += scratch.len() as f64 * 4.0;
                    }
                    Err(_) => failed += 1,
                }
            }
            if !entropy_coded {
                continue;
            }
            for bytes in &fetched {
                let codes = Container::from_bytes(bytes)
                    .ok()
                    .and_then(|c| c.get(tag(b"QNTC")).and_then(unpack_maybe_rle));
                let Some(codes) = codes else {
                    failed += 1;
                    continue;
                };
                let (res, us) = timed(Some(tr), "codec.huffman_decode", 0, 0, || {
                    huffman_decode(&codes)
                });
                match res {
                    Ok(_) => huffman_us.push(us),
                    Err(_) => failed += 1,
                }
            }
        }
    }
    let mut all_codec_us = Vec::new();
    for (name, cost) in &per_codec {
        let total_us: f64 = cost.decompress_us.iter().sum();
        out.put(
            format!("{name}.decompress_us_per_chunk"),
            mean(&cost.decompress_us),
            "us",
        );
        out.put(
            format!("{name}.decompress_mbps"),
            if total_us > 0.0 {
                cost.decoded_bytes / MB / (total_us / 1e6)
            } else {
                0.0
            },
            "MB/s",
        );
        all_codec_us.extend_from_slice(&cost.decompress_us);
    }
    out.put("store.fetch_us_per_chunk", mean(&fetch_us), "us");
    out.put(
        "store.strip_extract_us_per_chunk",
        mean(&decode_us) - mean(&fetch_us) - mean(&all_codec_us),
        "us",
    );
    out.put("codec.huffman_decode_us_per_chunk", mean(&huffman_us), "us");
    failed
}
