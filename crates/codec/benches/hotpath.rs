//! Micro-benchmarks for the codec hot path: bit-IO, Huffman, RLE, varint.
//!
//! Every bit-IO/Huffman bench runs both the word-at-a-time/table-driven
//! implementation and the per-bit reference it replaced, so the speedup is
//! visible in one run; `huffman_decode/small_block` times one 4³ chunk's
//! block, the per-chunk floor. `cargo bench -p hqmr-codec --bench hotpath`
//! (`-- --test` for the CI smoke run).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hqmr_codec::bitio::{reference, BitReader, BitWriter};
use hqmr_codec::{
    huffman_decode, huffman_decode_reference, huffman_encode, huffman_encode_reference,
    read_uvarint, rle_decode, rle_encode, write_uvarint,
};

/// Deterministic widths/values for bit-IO benches (no RNG dependency).
fn bit_pattern(n: usize) -> Vec<(u64, u32)> {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    (0..n)
        .map(|_| {
            x = x.rotate_left(11).wrapping_mul(0x2545_F491_4F6C_DD1D);
            (x, 1 + (x % 24) as u32)
        })
        .collect()
}

/// Quantizer-like symbol stream: sharply peaked at one code, as SZ2/SZ3 emit.
fn quant_symbols(n: usize) -> Vec<u32> {
    let mut x: u64 = 0x0123_4567_89AB_CDEF;
    (0..n)
        .map(|_| {
            x = x.rotate_left(7).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let r = x % 100;
            if r < 80 {
                32768 // the zero-offset code dominates
            } else if r < 95 {
                32768 + (x % 9) as u32 - 4
            } else {
                (x % 65536) as u32
            }
        })
        .collect()
}

fn bench_bitio(c: &mut Criterion) {
    let pattern = bit_pattern(100_000);
    let total_bits: usize = pattern.iter().map(|&(_, n)| n as usize).sum();
    let bytes = (total_bits / 8) as u64;

    let mut g = c.benchmark_group("bitio_write");
    g.sample_size(20).throughput(Throughput::Bytes(bytes));
    g.bench_function("word", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            for &(v, n) in &pattern {
                w.write_bits(v, n);
            }
            w.finish()
        })
    });
    g.bench_function("reference", |b| {
        b.iter(|| {
            let mut w = reference::BitWriter::new();
            for &(v, n) in &pattern {
                w.write_bits(v, n);
            }
            w.finish()
        })
    });
    g.finish();

    let mut w = BitWriter::new();
    for &(v, n) in &pattern {
        w.write_bits(v, n);
    }
    let stream = w.finish();
    let mut g = c.benchmark_group("bitio_read");
    g.sample_size(20).throughput(Throughput::Bytes(bytes));
    g.bench_function("word", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&stream);
            let mut acc = 0u64;
            for &(_, n) in &pattern {
                acc = acc.wrapping_add(r.read_bits(n));
            }
            acc
        })
    });
    g.bench_function("reference", |b| {
        b.iter(|| {
            let mut r = reference::BitReader::new(&stream);
            let mut acc = 0u64;
            for &(_, n) in &pattern {
                acc = acc.wrapping_add(r.read_bits(n));
            }
            acc
        })
    });
    g.finish();
}

fn bench_huffman(c: &mut Criterion) {
    let symbols = quant_symbols(200_000);
    let bytes = (symbols.len() * 4) as u64;
    let block = huffman_encode(&symbols);

    let mut g = c.benchmark_group("huffman_encode");
    g.sample_size(10).throughput(Throughput::Bytes(bytes));
    g.bench_function("table", |b| b.iter(|| huffman_encode(&symbols)));
    g.bench_function("reference", |b| {
        b.iter(|| huffman_encode_reference(&symbols))
    });
    g.finish();

    let mut g = c.benchmark_group("huffman_decode");
    g.sample_size(10).throughput(Throughput::Bytes(bytes));
    g.bench_function("table", |b| b.iter(|| huffman_decode(&block).unwrap()));
    g.bench_function("reference", |b| {
        b.iter(|| huffman_decode_reference(&block).unwrap())
    });
    g.finish();

    // One 4³ store chunk's code block: 64 symbols whose header still spans
    // the quantizer's full 2·32768 alphabet. Decode cost here is the
    // per-chunk floor, so it must track the 64 symbols, not the alphabet.
    let mut small = quant_symbols(64);
    small[63] = 65535;
    let small_block = huffman_encode(&small);
    let mut g = c.benchmark_group("huffman_decode");
    g.sample_size(20)
        .throughput(Throughput::Bytes((small.len() * 4) as u64));
    g.bench_function("small_block", |b| {
        b.iter(|| huffman_decode(&small_block).unwrap())
    });
    g.finish();
}

fn bench_rle_varint(c: &mut Criterion) {
    // Runs-of-bytes payload, the RLE case the side channels hit.
    let mut payload = Vec::with_capacity(1 << 18);
    for i in 0..(1 << 12) {
        payload.extend(std::iter::repeat_n((i % 7) as u8, 32 + i % 96));
    }
    let encoded = rle_encode(&payload);
    let mut g = c.benchmark_group("rle");
    g.sample_size(20)
        .throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("encode", |b| b.iter(|| rle_encode(&payload)));
    g.bench_function("decode", |b| b.iter(|| rle_decode(&encoded).unwrap()));
    g.finish();

    let values: Vec<u64> = (0..100_000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    let mut buf = Vec::new();
    for &v in &values {
        write_uvarint(&mut buf, v);
    }
    let mut g = c.benchmark_group("varint");
    g.sample_size(20)
        .throughput(Throughput::Bytes(buf.len() as u64));
    g.bench_function("write", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(buf.len());
            for &v in &values {
                write_uvarint(&mut out, v);
            }
            out
        })
    });
    g.bench_function("read", |b| {
        b.iter(|| {
            let mut pos = 0usize;
            let mut acc = 0u64;
            while pos < buf.len() {
                acc = acc.wrapping_add(read_uvarint(&buf, &mut pos).unwrap());
            }
            acc
        })
    });
    g.finish();
}

criterion_group!(benches, bench_bitio, bench_huffman, bench_rle_varint);
criterion_main!(benches);
