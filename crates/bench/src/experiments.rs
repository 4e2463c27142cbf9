//! One function per paper table/figure. Each returns a plain-text report;
//! the `tables` binary dispatches and persists them under `results/`.

use crate::runner::{
    level_psnr, level_values, match_cr, mr_blockwise_roundtrip, psnr_slices, rd_sweep,
    roundtrip_mr, row, single_level, BlockCodec, MkConfig, RdPoint,
};
use crate::{datasets, load, obj, Json};
use hqmr_core::mrc::{compress_mr, decompress_mr, Backend, MrcConfig};
use hqmr_core::post::{bezier_pass, select_intensity, select_intensity_sampled, PostConfig};
use hqmr_core::uncertainty::{analyze_feature_recovery, model_near_isovalue, sample_error_pairs};
use hqmr_core::{insitu, StageTimings};
use hqmr_filters::{anisotropic_diffusion, gaussian_blur, median3};
use hqmr_grid::{synth, Dims3, Field3};
use hqmr_metrics::{find_halos_abs, halo_recall, psnr, spectrum_rel_errors, ssim};
use hqmr_mr::{
    merge_discontinuity, merge_level, resample_like, roi_only_field, to_adaptive, MergeStrategy,
    MultiResData, RoiConfig, Upsample,
};
use hqmr_sz3::interp_levels;
use hqmr_vis::{render_slice, save_ppm, Colormap};
use std::fmt::Write as _;

const RD_CONFIGS: [(&str, MkConfig); 5] = [
    ("Baseline-SZ3", MrcConfig::baseline),
    ("AMRIC-SZ3", MrcConfig::amric),
    ("TAC-SZ3", MrcConfig::tac),
    ("Ours(pad)", MrcConfig::ours_pad),
    ("Ours(pad+eb)", MrcConfig::ours),
];

fn fmt_curves(out: &mut String, curves: &[(&'static str, Vec<RdPoint>)]) {
    for (name, pts) in curves {
        out.push_str(&row(&format!("{name} CR"), pts.iter().map(|p| p.cr), 9, 2));
        out.push_str(&row(
            &format!("{name} PSNR"),
            pts.iter().map(|p| p.psnr),
            9,
            2,
        ));
    }
}

/// Table III: dataset inventory at the chosen scale.
pub fn tab03(scale: usize) -> String {
    let mut out = String::from("Table III — datasets (proxy instantiation)\n");
    let sets = [
        datasets::nyx_t1(scale, 1),
        datasets::warpx(scale / 2, 2),
        datasets::rt(scale, 3),
        datasets::nyx_t2(scale, 4),
        datasets::hurricane(scale, 5),
        datasets::nyx_t3(scale, 6),
        datasets::s3d(scale, 7),
    ];
    for d in sets {
        let dims = d.field.dims();
        let mb = (d.field.len() * 4) as f64 / (1024.0 * 1024.0);
        write!(out, "{:8} dims={dims} size={mb:.1} MiB", d.name).unwrap();
        if let Some(mr) = &d.mr {
            write!(out, " levels={}", mr.levels.len()).unwrap();
            for l in &mr.levels {
                write!(
                    out,
                    " [L{} unit={} density={:.0}%]",
                    l.level,
                    l.unit,
                    100.0 * l.density()
                )
                .unwrap();
            }
            write!(out, " storage_ratio={:.2}", mr.storage_ratio()).unwrap();
        } else {
            write!(out, " uniform").unwrap();
        }
        out.push('\n');
    }
    out
}

/// Fig. 4: range-threshold ROI extraction on Nyx — volume fraction vs. halo
/// recall and slice SSIM (the paper reports 15% volume, SSIM 0.99995).
pub fn fig04(scale: usize) -> String {
    let d = datasets::nyx_t1(scale, 11);
    // Halo definition: extreme over-densities (a FOF-style finder targets
    // collapsed structures, not the broad over-dense tail).
    let mean = d.field.data().iter().map(|&v| v as f64).sum::<f64>() / d.field.len() as f64;
    let thr = (25.0 * mean) as f32;
    let halos = find_halos_abs(&d.field, thr, 3);
    let mut out = format!(
        "Fig. 4 — ROI extraction on {} ({} halos at 25x mean, >=3 cells)\n",
        d.name,
        halos.len()
    );
    out.push_str("roi_frac  vol%   halo_recall  slice_SSIM  storage_ratio\n");
    for frac in [0.05, 0.10, 0.15, 0.25, 0.50] {
        let cfg = RoiConfig::new(if scale >= 128 { 16 } else { 8 }, frac);
        let (roi_field, vol) = roi_only_field(&d.field, &cfg);
        let roi_halos = find_halos_abs(&roi_field, thr, 1);
        let recall = halo_recall(&halos, &roi_halos, 3.0);
        let mr = to_adaptive(&d.field, &cfg);
        let recon = mr.reconstruct(Upsample::Trilinear);
        let k = d.field.dims().nz / 2;
        let (w, h, a) = d.field.slice_z(k);
        let (_, _, b) = recon.slice_z(k);
        let s = ssim(&a, &b, w, h);
        writeln!(
            out,
            "{:8.2} {:5.1}  {:11.3}  {:10.5}  {:13.2}",
            frac,
            100.0 * vol,
            recall,
            s,
            mr.storage_ratio()
        )
        .unwrap();
    }
    out
}

/// Fig. 5: visual quality at matched CR on the Nyx fine level —
/// TAC vs AMRIC vs ours (the paper: SSIM .64/.57/.91 at CR 163).
pub fn fig05(scale: usize) -> String {
    let d = datasets::nyx_t1(scale, 21);
    let mr = d.mr.as_ref().unwrap();
    let fine = single_level(mr, 0);
    let range = d.range();
    // Target CR: whatever "ours" reaches at a high relative bound.
    let (target_cr, _) = roundtrip_mr(&fine, &MrcConfig::ours(range * 2e-2));
    let mut out = format!("Fig. 5 — Nyx fine level at matched CR ≈ {target_cr:.0}\n");
    out.push_str("method        CR       PSNR     SSIM(slice)\n");
    for (name, mk) in RD_CONFIGS {
        let rel = match_cr(
            |r| roundtrip_mr(&fine, &mk(range * r)).0,
            1e-5,
            0.3,
            target_cr,
            18,
        );
        let cfg = mk(range * rel);
        let (bytes, stats) = compress_mr(&fine, &cfg);
        let back = decompress_mr(&bytes).unwrap();
        let p = level_psnr(&fine.levels[0], &back.levels[0]);
        // Slice SSIM of the fine-level field (empty cells filled with 0 in
        // both, so structural differences come from the blocks).
        let fa = fine.levels[0].to_field(0.0);
        let fb = back.levels[0].to_field(0.0);
        let k = fa.dims().nz / 2;
        let (w, h, a) = fa.slice_z(k);
        let (_, _, b) = fb.slice_z(k);
        writeln!(
            out,
            "{name:13} {:8.1} {p:8.2} {:10.4}",
            stats.ratio(),
            ssim(&a, &b, w, h)
        )
        .unwrap();
    }
    out
}

/// Fig. 6: boundary unsmoothness of the three arrangements.
pub fn fig06(scale: usize) -> String {
    let mut out =
        String::from("Fig. 6 — mean |jump| across merged block joins (lower = smoother)\n");
    for (name, d) in [
        ("Nyx-T1", datasets::nyx_t1(scale, 31)),
        ("RT", datasets::rt(scale, 32)),
    ] {
        let mr = d.mr.as_ref().unwrap();
        write!(out, "{name:8}").unwrap();
        for (sname, s) in [
            ("linear", MergeStrategy::Linear),
            ("stack", MergeStrategy::Stack),
            ("tac", MergeStrategy::Tac),
        ] {
            let arrays: Vec<_> = mr.levels.iter().flat_map(|l| merge_level(l, s)).collect();
            write!(out, "  {sname}={:.4e}", merge_discontinuity(&arrays)).unwrap();
        }
        out.push('\n');
    }
    out
}

/// Fig. 7/8: interpolation extrapolation counts with and without padding.
pub fn fig07(_scale: usize) -> String {
    let mut out =
        String::from("Fig. 7/8 — sub-optimal (extrapolated) predictions per line/array\n");
    for (label, dims) in [
        ("1-D n=8 (Fig.7)", Dims3::new(1, 1, 8)),
        ("1-D n=9 (Fig.8, padded)", Dims3::new(1, 1, 9)),
        ("1-D n=16", Dims3::new(1, 1, 16)),
        ("1-D n=17 (padded)", Dims3::new(1, 1, 17)),
        ("3-D 16^3", Dims3::cube(16)),
        ("3-D 17^3 (padded)", Dims3::cube(17)),
        ("merged 16x16x256", Dims3::new(16, 16, 256)),
        ("merged 17x17x256 (padded)", Dims3::new(17, 17, 256)),
    ] {
        let f = Field3::from_fn(dims, |x, y, z| {
            ((x + y) as f32 * 0.3).sin() + (z as f32 * 0.2).cos()
        });
        let r = hqmr_sz3::compress(&f, &hqmr_sz3::Sz3Config::new(1e-3));
        writeln!(
            out,
            "{label:28} levels={} extrapolated={:5} of {:7} ({:.2}%)",
            interp_levels(dims.max_extent()),
            r.stats.extrapolated,
            r.stats.total(),
            100.0 * r.stats.extrapolated as f64 / r.stats.total() as f64
        )
        .unwrap();
    }
    out
}

/// Table I: post-process vs. image filters on ZFP-decompressed WarpX.
pub fn tab01(scale: usize) -> String {
    let d = datasets::warpx(scale / 2, 41);
    let eb = d.range() * 4e-3;
    let (bytes, dec) = BlockCodec::Zfp.roundtrip(&d.field, eb);
    let cr = (d.field.len() * 4) as f64 / bytes as f64;
    let cfg = PostConfig::zfp();
    let choice = select_intensity(&d.field, &dec, eb, &cfg);
    let ours = bezier_pass(&dec, eb, choice.a, &cfg);
    let median = median3(&dec);
    let gauss = gaussian_blur(&dec, 1.0);
    let aniso = anisotropic_diffusion(&dec, 5, d.range() * 0.01);
    let mut out = format!("Table I — WarpX + ZFP at CR {cr:.0}: PSNR of post-processing options\n");
    out.push_str("decompressed  median  gaussian  anisotropic  ours\n");
    writeln!(
        out,
        "{:12.1} {:7.1} {:9.1} {:12.1} {:5.1}",
        psnr(&d.field, &dec),
        psnr(&d.field, &median),
        psnr(&d.field, &gauss),
        psnr(&d.field, &aniso),
        psnr(&d.field, &ours),
    )
    .unwrap();
    writeln!(
        out,
        "(chosen a = {:?}, sample rate {:.2}%)",
        choice.a,
        100.0 * choice.sample_rate
    )
    .unwrap();
    out
}

/// Fig. 12: rate-distortion of post-process variants on WarpX + ZFP.
pub fn fig12(scale: usize) -> String {
    let d = datasets::warpx(scale / 2, 42);
    let mut out = String::from("Fig. 12 — WarpX + ZFP post-process variants\n");
    out.push_str("rows: CR, then PSNR for zfp / bezier(unclamped) / a=1 / processed(dynamic)\n");
    let cfg = PostConfig::zfp();
    let mut crs = Vec::new();
    let mut p_zfp = Vec::new();
    let mut p_bez = Vec::new();
    let mut p_a1 = Vec::new();
    let mut p_dyn = Vec::new();
    for rel in [1e-3, 3e-3, 8e-3, 2e-2, 5e-2] {
        let eb = d.range() * rel;
        let (bytes, dec) = BlockCodec::Zfp.roundtrip(&d.field, eb);
        crs.push((d.field.len() * 4) as f64 / bytes as f64);
        p_zfp.push(psnr(&d.field, &dec));
        p_bez.push(psnr(&d.field, &bezier_pass(&dec, eb, [1e12; 3], &cfg)));
        p_a1.push(psnr(&d.field, &bezier_pass(&dec, eb, [1.0; 3], &cfg)));
        let choice = select_intensity(&d.field, &dec, eb, &cfg);
        p_dyn.push(psnr(&d.field, &bezier_pass(&dec, eb, choice.a, &cfg)));
    }
    out.push_str(&row("CR", crs.iter().copied(), 8, 1));
    out.push_str(&row("ZFP", p_zfp.iter().copied(), 8, 2));
    out.push_str(&row("Bezier", p_bez.iter().copied(), 8, 2));
    out.push_str(&row("a=1", p_a1.iter().copied(), 8, 2));
    out.push_str(&row("Processed", p_dyn.iter().copied(), 8, 2));
    out
}

/// Table II: SZ2 + post-process on WarpX across CRs.
pub fn tab02(scale: usize) -> String {
    let d = datasets::warpx(scale / 2, 43);
    let cfg = PostConfig::sz2();
    let mut out = String::from("Table II — WarpX + SZ2: PSNR before/after post-process\n");
    let mut crs = Vec::new();
    let mut ori = Vec::new();
    let mut post = Vec::new();
    for rel in [5e-4, 1e-3, 3e-3, 8e-3, 2e-2, 5e-2, 1e-1] {
        let eb = d.range() * rel;
        let (bytes, dec) = BlockCodec::Sz2 { block: 6 }.roundtrip(&d.field, eb);
        crs.push((d.field.len() * 4) as f64 / bytes as f64);
        ori.push(psnr(&d.field, &dec));
        let choice = select_intensity(&d.field, &dec, eb, &cfg);
        post.push(psnr(&d.field, &bezier_pass(&dec, eb, choice.a, &cfg)));
    }
    out.push_str(&row("CR", crs.iter().copied(), 8, 1));
    out.push_str(&row("PSNR-SZ2", ori.iter().copied(), 8, 2));
    out.push_str(&row("PSNR-Proc'ed", post.iter().copied(), 8, 2));
    out
}

/// Fig. 14: uncertainty visualization recovers isosurface features lost to
/// compression (Hurricane + ZFP at high CR). Also writes PPM renders.
pub fn fig14(scale: usize) -> String {
    let d = datasets::hurricane(scale, 44);
    let eb = d.range() * 0.25;
    let (bytes, dec) = BlockCodec::Zfp.roundtrip(&d.field, eb);
    let cr = (d.field.len() * 4) as f64 / bytes as f64;
    let (mn, mx) = d.field.min_max();
    // Scan for an isovalue where compression visibly destroys features (the
    // paper likewise shows a view chosen to exhibit the failure mode).
    let iso = (45..80)
        .map(|i| mn + i as f32 / 100.0 * (mx - mn))
        .find(|&iso| {
            let o = hqmr_vis::surface_features(&d.field, iso, 2).len();
            let dd = hqmr_vis::surface_features(&dec, iso, 2).len();
            o > dd
        })
        .unwrap_or(mn + 0.58 * (mx - mn));
    let pairs = sample_error_pairs(&d.field, &dec, 0.02, 0xF16);
    let model = model_near_isovalue(&pairs, iso, (mx - mn) * 0.1);
    let rec = analyze_feature_recovery(&d.field, &dec, iso, &model, 0.1, 2, scale as f64 / 8.0);
    let mut out = format!(
        "Fig. 14 — Hurricane + ZFP (CR {cr:.0}), iso = {iso:.2}, error model N({:.3}, {:.3}²)\n",
        model.mean, model.sigma
    );
    writeln!(
        out,
        "features: original={} preserved={} lost={} recovered_by_PMC={}",
        rec.original,
        rec.preserved,
        rec.original - rec.preserved,
        rec.recovered
    )
    .unwrap();

    // Renders: mid-z slice of original, decompressed, decompressed+PMC.
    let dir = crate::results_dir();
    std::fs::create_dir_all(&dir).ok();
    let k = d.field.dims().nz / 2;
    let img_o = render_slice(&d.field, k, mn, mx, Colormap::Viridis);
    let img_d = render_slice(&dec, k, mn, mx, Colormap::Viridis);
    let mut img_u = render_slice(&dec, k, mn, mx, Colormap::Viridis);
    let (cd, prob) = hqmr_vis::crossing_probability_field(&dec, &model.pmc(iso));
    if !cd.is_empty() && k < cd.nz {
        let mut slice = vec![0f32; cd.nx * cd.ny];
        for x in 0..cd.nx {
            for y in 0..cd.ny {
                slice[x * cd.ny + y] = prob[cd.idx(x, y, k.min(cd.nz - 1))];
            }
        }
        hqmr_vis::render::overlay_probability(&mut img_u, &slice, cd.nx, cd.ny);
    }
    for (name, img) in [
        ("fig14_original", &img_o),
        ("fig14_decompressed", &img_d),
        ("fig14_uncertainty", &img_u),
    ] {
        let p = dir.join(format!("{name}.ppm"));
        if save_ppm(&p, img).is_ok() {
            writeln!(out, "wrote {}", p.display()).unwrap();
        }
    }
    out
}

/// Fig. 15: in-situ AMR rate-distortion on Nyx-T1, per level, five methods.
pub fn fig15(scale: usize) -> String {
    let d = datasets::nyx_t1(scale, 51);
    let mr = d.mr.as_ref().unwrap();
    let range = d.range();
    let rels = [3e-4, 1e-3, 4e-3, 1.5e-2, 5e-2];
    let mut out = String::from("Fig. 15 — Nyx-T1 rate-distortion per level (CR / PSNR rows)\n");
    for (idx, label) in [(0usize, "fine level"), (1, "coarse level")] {
        let lvl = single_level(mr, idx);
        writeln!(
            out,
            "--- {label} (density {:.0}%)",
            100.0 * mr.levels[idx].density()
        )
        .unwrap();
        let curves = rd_sweep(&lvl, range, &rels, &RD_CONFIGS);
        fmt_curves(&mut out, &curves);
        // "Ours (processed)": ours + Bézier post on the merged arrays.
        let pts: Vec<RdPoint> = rels
            .iter()
            .map(|&rel| processed_point(&lvl, range * rel))
            .collect();
        out.push_str(&row("Ours(proc) CR", pts.iter().map(|p| p.cr), 9, 2));
        out.push_str(&row("Ours(proc) PSNR", pts.iter().map(|p| p.psnr), 9, 2));
    }
    out
}

/// "Ours (processed)" point: SZ3MR(ours) + Bézier post on unit-block joins.
fn processed_point(mr: &MultiResData, eb: f64) -> RdPoint {
    let cfg = MrcConfig::ours(eb);
    let (bytes, stats) = compress_mr(mr, &cfg);
    let back = decompress_mr(&bytes).unwrap();
    let mut all_o: Vec<f32> = Vec::new();
    let mut all_p: Vec<f32> = Vec::new();
    for (lo, lb) in mr.levels.iter().zip(&back.levels) {
        // Post-process the decompressed level on its merged linear layout.
        let arrays_o = merge_level(lo, MergeStrategy::Linear);
        let arrays_b = merge_level(lb, MergeStrategy::Linear);
        let pcfg = PostConfig::sz3_multires(lo.unit);
        for (mo, mb) in arrays_o.iter().zip(&arrays_b) {
            let choice = select_intensity(&mo.field, &mb.field, eb, &pcfg);
            let post = bezier_pass(&mb.field, eb, choice.a, &pcfg);
            all_o.extend(mo.field.data());
            all_p.extend(post.data());
        }
    }
    RdPoint {
        cr: stats.ratio(),
        psnr: psnr_slices(&all_o, &all_p),
    }
}

/// Table IV: output time, AMRIC vs ours, big and small error bounds.
pub fn tab04(scale: usize) -> String {
    let d = datasets::nyx_t1(scale, 52);
    let mr = d.mr.as_ref().unwrap();
    let path = std::env::temp_dir().join("hqmr_tab04.bin");
    let mut out =
        String::from("Table IV — output time (s): pre-process vs compress+write (Nyx-T1)\n");
    out.push_str("eb      method  preprocess  comp+write  total\n");
    // Warm up.
    let _ = insitu::write_snapshot(mr, &MrcConfig::ours(d.range() * 1e-2), &path);
    for (label, rel) in [("big", 4e-2), ("small", 2e-3)] {
        for (name, cfg) in [
            ("AMRIC", MrcConfig::amric(d.range() * rel)),
            ("Ours", MrcConfig::ours(d.range() * rel)),
        ] {
            let mut best = StageTimings {
                preprocess: f64::MAX,
                compress_write: f64::MAX,
            };
            for _ in 0..3 {
                let (t, _) = insitu::write_snapshot(mr, &cfg, &path).unwrap();
                if t.total() < best.total() {
                    best = t;
                }
            }
            writeln!(
                out,
                "{label:7} {name:7} {:10.4} {:11.4} {:6.4}",
                best.preprocess,
                best.compress_write,
                best.total()
            )
            .unwrap();
        }
    }
    std::fs::remove_file(&path).ok();
    out
}

/// Table V: AMRIC-SZ2 + post-process on Nyx-T1, per level.
pub fn tab05(scale: usize) -> String {
    let d = datasets::nyx_t1(scale, 53);
    let mr = d.mr.as_ref().unwrap();
    let mut out = String::from("Table V — Nyx-T1 AMRIC-SZ2 + post-process (per level)\n");
    for (idx, label) in [(0usize, "Fine"), (1, "Coarse")] {
        let lvl = single_level(mr, idx);
        let vals = level_values(&lvl.levels[0]);
        let (mn, mx) = vals
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(a, b), &v| {
                (a.min(v), b.max(v))
            });
        let range = (mx - mn) as f64;
        let mut crs = Vec::new();
        let mut ori = Vec::new();
        let mut post = Vec::new();
        for rel in [2e-3, 6e-3, 2e-2, 6e-2, 1.5e-1] {
            let r = mr_blockwise_roundtrip(&lvl, BlockCodec::Sz2 { block: 4 }, range * rel);
            crs.push(r.cr);
            ori.push(r.psnr_ori);
            post.push(r.psnr_post);
        }
        writeln!(out, "--- {label}").unwrap();
        out.push_str(&row("CR", crs.iter().copied(), 8, 1));
        out.push_str(&row("PSNR-AMRIC-SZ2", ori.iter().copied(), 8, 2));
        out.push_str(&row("PSNR-Post-SZ2", post.iter().copied(), 8, 2));
    }
    out
}

/// Fig. 16: WarpX visual comparison at matched CR — baseline SZ3 vs SZ3MR.
pub fn fig16(scale: usize) -> String {
    let d = datasets::warpx(scale / 2, 54);
    let mr = d.mr.as_ref().unwrap();
    let range = d.range();
    let (target_cr, _) = roundtrip_mr(mr, &MrcConfig::ours(range * 2e-2));
    let mut out = format!("Fig. 16 — WarpX at matched CR ≈ {target_cr:.0}\n");
    out.push_str("method        CR       PSNR     SSIM(slice)\n");
    let dir = crate::results_dir();
    std::fs::create_dir_all(&dir).ok();
    let (mn, mx) = d.field.min_max();
    for (name, mk) in [
        ("Baseline-SZ3", MrcConfig::baseline as fn(f64) -> _),
        ("Ours", MrcConfig::ours),
    ] {
        let rel = match_cr(
            |r| roundtrip_mr(mr, &mk(range * r)).0,
            1e-5,
            0.3,
            target_cr,
            18,
        );
        let (bytes, stats) = compress_mr(mr, &mk(range * rel));
        let back = decompress_mr(&bytes).unwrap();
        let recon = back.reconstruct(Upsample::Trilinear);
        let k = d.field.dims().nx / 2;
        let (w, h, a) = d.field.slice_x(k);
        let (_, _, b) = recon.slice_x(k);
        writeln!(
            out,
            "{name:13} {:8.1} {:8.2} {:10.4}",
            stats.ratio(),
            psnr(&d.field, &recon),
            ssim(&a, &b, w, h)
        )
        .unwrap();
        let img = render_slice(&recon, recon.dims().nz * 7 / 10, mn, mx, Colormap::CoolWarm);
        let p = dir.join(format!(
            "fig16_{}.ppm",
            name.to_lowercase().replace('-', "_")
        ));
        save_ppm(&p, &img).ok();
    }
    let img = render_slice(
        &d.field,
        d.field.dims().nz * 7 / 10,
        mn,
        mx,
        Colormap::CoolWarm,
    );
    save_ppm(dir.join("fig16_original.ppm"), &img).ok();
    out
}

/// Fig. 17: adaptive-data rate-distortion (WarpX + Hurricane), three curves.
pub fn fig17(scale: usize) -> String {
    let mut out = String::from("Fig. 17 — adaptive data rate-distortion\n");
    let configs: [(&str, MkConfig); 3] = [
        ("Baseline-SZ3", MrcConfig::baseline),
        ("Ours(pad)", MrcConfig::ours_pad),
        ("Ours(pad+eb)", MrcConfig::ours),
    ];
    for d in [
        datasets::warpx(scale / 2, 55),
        datasets::hurricane(scale, 56),
    ] {
        writeln!(out, "--- {}", d.name).unwrap();
        let mr = d.mr.as_ref().unwrap();
        let curves = rd_sweep(mr, d.range(), &[3e-4, 1e-3, 4e-3, 1.5e-2, 5e-2], &configs);
        fmt_curves(&mut out, &curves);
    }
    out
}

/// Fig. 18: offline AMR rate-distortion (Nyx-T2 + RT), five curves.
pub fn fig18(scale: usize) -> String {
    let mut out = String::from("Fig. 18 — offline AMR rate-distortion\n");
    for d in [datasets::nyx_t2(scale, 57), datasets::rt(scale, 58)] {
        writeln!(out, "--- {}", d.name).unwrap();
        let mr = d.mr.as_ref().unwrap();
        let curves = rd_sweep(
            mr,
            d.range(),
            &[3e-4, 1e-3, 4e-3, 1.5e-2, 5e-2],
            &RD_CONFIGS,
        );
        fmt_curves(&mut out, &curves);
    }
    out
}

/// Table VI: power-spectrum error at matched CR on Nyx-T2 (k < 10).
pub fn tab06(scale: usize) -> String {
    let d = datasets::nyx_t2(scale, 59);
    let mr = d.mr.as_ref().unwrap();
    let range = d.range();
    let (target_cr, _) = roundtrip_mr(mr, &MrcConfig::ours(range * 1.2e-2));
    let mut out =
        format!("Table VI — Nyx-T2 power-spectrum error at CR ≈ {target_cr:.0}, k < 10\n");
    out.push_str("method        CR      max_rel_err   avg_rel_err\n");
    let methods: [(&str, MkConfig); 4] = [
        ("Baseline-SZ3", MrcConfig::baseline),
        ("AMRIC-SZ3", MrcConfig::amric),
        ("TAC-SZ3", MrcConfig::tac),
        ("Ours(pad+eb)", MrcConfig::ours),
    ];
    for (name, mk) in methods {
        let rel = match_cr(
            |r| roundtrip_mr(mr, &mk(range * r)).0,
            1e-5,
            0.3,
            target_cr,
            18,
        );
        let (bytes, stats) = compress_mr(mr, &mk(range * rel));
        let back = decompress_mr(&bytes).unwrap();
        let recon = back.reconstruct(Upsample::Trilinear);
        let orig = mr.reconstruct(Upsample::Trilinear);
        let (mx, avg) = spectrum_rel_errors(&orig, &recon, 10);
        writeln!(
            out,
            "{name:13} {:7.1} {mx:13.3e} {avg:13.3e}",
            stats.ratio()
        )
        .unwrap();
    }
    out
}

/// Table VII: post-process on multi-resolution data (RT + Hurricane) with
/// ZFP and AMRIC-SZ2.
pub fn tab07(scale: usize) -> String {
    let mut out = String::from("Table VII — post-process on multi-resolution data\n");
    for d in [datasets::rt(scale, 61), datasets::hurricane(scale, 62)] {
        let mr = d.mr.as_ref().unwrap();
        let vals: Vec<f32> = mr.levels.iter().flat_map(level_values).collect();
        let (mn, mx) = vals
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(a, b), &v| {
                (a.min(v), b.max(v))
            });
        let range = (mx - mn) as f64;
        for (cname, codec) in [
            ("ZFP", BlockCodec::Zfp),
            ("SZ2", BlockCodec::Sz2 { block: 4 }),
        ] {
            writeln!(out, "--- {} + {cname}", d.name).unwrap();
            let mut crs = Vec::new();
            let mut ori = Vec::new();
            let mut post = Vec::new();
            for rel in [1e-3, 4e-3, 1.2e-2, 4e-2, 1e-1] {
                let r = mr_blockwise_roundtrip(mr, codec, range * rel);
                crs.push(r.cr);
                ori.push(r.psnr_ori);
                post.push(r.psnr_post);
            }
            out.push_str(&row("CR", crs.iter().copied(), 8, 1));
            out.push_str(&row("PSNR-Ori", ori.iter().copied(), 8, 2));
            out.push_str(&row("PSNR-Post", post.iter().copied(), 8, 2));
        }
    }
    out
}

/// Table VIII: post-process on uniform data (S3D + Nyx-T3) with ZFP and SZ2.
pub fn tab08(scale: usize) -> String {
    let mut out = String::from("Table VIII — post-process on uniform data\n");
    for d in [datasets::s3d(scale, 63), datasets::nyx_t3(scale, 64)] {
        for (cname, codec, post_cfg) in [
            ("ZFP", BlockCodec::Zfp, PostConfig::zfp()),
            ("SZ2", BlockCodec::Sz2 { block: 6 }, PostConfig::sz2()),
        ] {
            writeln!(out, "--- {} + {cname}", d.name).unwrap();
            let mut crs = Vec::new();
            let mut ori = Vec::new();
            let mut post = Vec::new();
            for rel in [1e-3, 4e-3, 1.2e-2, 4e-2, 1e-1] {
                let eb = d.range() * rel;
                let (bytes, dec) = codec.roundtrip(&d.field, eb);
                crs.push((d.field.len() * 4) as f64 / bytes as f64);
                ori.push(psnr(&d.field, &dec));
                let choice = select_intensity(&d.field, &dec, eb, &post_cfg);
                post.push(psnr(&d.field, &bezier_pass(&dec, eb, choice.a, &post_cfg)));
            }
            out.push_str(&row("CR", crs.iter().copied(), 8, 1));
            out.push_str(&row("PSNR-Ori", ori.iter().copied(), 8, 2));
            out.push_str(&row("PSNR-Post", post.iter().copied(), 8, 2));
        }
    }
    out
}

/// Table IX: post-processing overhead relative to the compression workflow.
pub fn tab09(scale: usize) -> String {
    use std::time::Instant;
    let d = datasets::s3d(scale, 65);
    let mut out = String::from(
        "Table IX — post-process overhead on S3D (seconds)\n\
         codec        eb    io     comp+dec  sample+model  process  ori(c1+c2)  extra(c3+c4)  overhead\n",
    );
    let io_path = std::env::temp_dir().join("hqmr_tab09.hqf3");
    for (cname, codec, post_cfg) in [
        ("ZFP(par)", BlockCodec::Zfp, PostConfig::zfp()),
        ("SZ2(par)", BlockCodec::Sz2 { block: 6 }, PostConfig::sz2()),
        (
            "SZ2(serial)",
            BlockCodec::Sz2 { block: 6 },
            PostConfig::sz2().serial(),
        ),
    ] {
        for (elabel, rel) in [("small", 2e-3), ("mid", 1e-2), ("large", 5e-2)] {
            let eb = d.range() * rel;
            // c1: read original + write decompressed (round numbers on tmpfs).
            let t = Instant::now();
            hqmr_grid::io::save_field(&io_path, &d.field).unwrap();
            let loaded = hqmr_grid::io::load_field(&io_path).unwrap();
            let c1 = t.elapsed().as_secs_f64();
            // c2: compress + decompress.
            let t = Instant::now();
            let (_, dec) = codec.roundtrip(&loaded, eb);
            let c2 = t.elapsed().as_secs_f64();
            // c3: sampling + modelling (round-trips only the samples).
            let t = Instant::now();
            let choice =
                select_intensity_sampled(&d.field, |w| codec.roundtrip(w, eb).1, eb, &post_cfg);
            let c3 = t.elapsed().as_secs_f64();
            // c4: the post-process itself.
            let t = Instant::now();
            let _post = bezier_pass(&dec, eb, choice.a, &post_cfg);
            let c4 = t.elapsed().as_secs_f64();
            writeln!(
                out,
                "{cname:12} {elabel:5} {c1:6.3} {c2:9.3} {c3:13.4} {c4:8.4} {:11.3} {:13.4} {:9.4}",
                c1 + c2,
                c3 + c4,
                (c3 + c4) / (c1 + c2)
            )
            .unwrap();
        }
    }
    std::fs::remove_file(&io_path).ok();
    out
}

/// Ablations called out in DESIGN.md: pad value, α/β grid, padding cutoff.
pub fn ablations(scale: usize) -> String {
    let mut out = String::from("Ablations\n");
    let d = datasets::warpx(scale / 2, 71);
    let mr = d.mr.as_ref().unwrap();
    let range = d.range();
    let eb = range * 8e-3;

    // (a) Pad value: constant / linear / quadratic extrapolation.
    out.push_str("-- pad extrapolation kind (WarpX, rel eb 8e-3)\n");
    for kind in [
        hqmr_mr::PadKind::Constant,
        hqmr_mr::PadKind::Linear,
        hqmr_mr::PadKind::Quadratic,
    ] {
        let cfg = MrcConfig {
            pad: Some(kind),
            ..MrcConfig::ours_pad(eb)
        };
        let (cr, psnrs) = roundtrip_mr(mr, &cfg);
        writeln!(out, "{kind:?}: CR={cr:.2} PSNR(fine)={:.2}", psnrs[0]).unwrap();
    }

    // (b) Adaptive-eb parameter grid around the paper's (2.25, 8).
    out.push_str("-- adaptive eb (alpha, beta) grid (WarpX)\n");
    for alpha in [1.5, 2.25, 3.0] {
        for beta in [4.0, 8.0, 16.0] {
            let cfg = MrcConfig::ours_pad(eb).with_backend(Backend::Sz3 {
                interp: hqmr_sz3::InterpKind::Cubic,
                level_eb: Some(hqmr_sz3::LevelEbPolicy { alpha, beta }),
            });
            let (cr, psnrs) = roundtrip_mr(mr, &cfg);
            writeln!(
                out,
                "alpha={alpha:<4} beta={beta:<4}: CR={cr:.2} PSNR(fine)={:.2}",
                psnrs[0]
            )
            .unwrap();
        }
    }

    // (c) Padding cutoff: padding must pay at u = 16 but not at u = 4
    // ((u+1)^2/u^2 = 1.13 vs 1.56, SS III-A). Compare SZ3 bytes on merged
    // arrays directly, bypassing the config-level cutoff.
    out.push_str("-- padding overhead vs gain by unit size (WarpX level)\n");
    for unit in [4usize, 8, 16] {
        let f = synth::warpx_like(Dims3::new(unit * 2, unit * 2, unit * 32), 72);
        let lvl = hqmr_mr::LevelData {
            level: 0,
            unit,
            dims: f.dims(),
            blocks: hqmr_grid::BlockGrid::new(f.dims(), unit)
                .iter()
                .map(|b| hqmr_mr::UnitBlock {
                    origin: b.origin,
                    data: f.extract_box(b.origin, Dims3::cube(unit)).into_vec(),
                })
                .collect(),
        };
        let ebu = f.range() as f64 * 8e-3;
        let arrays = merge_level(&lvl, MergeStrategy::Linear);
        let cfg = hqmr_sz3::Sz3Config::new(ebu);
        let mut plain = 0usize;
        let mut padded = 0usize;
        for m in &arrays {
            plain += hqmr_sz3::compress(&m.field, &cfg).bytes.len();
            let pf = hqmr_mr::pad_small_dims(&m.field, hqmr_mr::PadKind::Linear);
            padded += hqmr_sz3::compress(&pf, &cfg).bytes.len();
        }
        writeln!(
            out,
            "unit={unit:2}: plain={plain} bytes, padded={padded} bytes ({:+.1}%)",
            100.0 * (padded as f64 / plain as f64 - 1.0)
        )
        .unwrap();
    }
    out
}

/// Store container benchmark: full vs ROI vs progressive vs isovalue-skip
/// reads on the block-indexed `hqmr-store`, per codec backend. The ROI is
/// chosen the way a viewer would: features found on the *coarse* level
/// (surface_features → features_bbox), scaled up and re-read at fine
/// resolution through `read_roi`. Besides the text report, the full matrix
/// lands in `BENCH_store.json` at the workspace root.
pub fn store(scale: usize) -> String {
    use hqmr_store::{write_store, StoreConfig, StoreReader};
    use std::time::Instant;
    let d = datasets::nyx_t1(scale, 91);
    let mr = d.mr.as_ref().unwrap();
    let eb = d.range() * 8e-3;
    let (mn, mx) = d.field.min_max();
    let iso = mn + 0.6 * (mx - mn);

    let mut out = format!(
        "Store reads — {} (scale {scale}, rel eb 8e-3, chunks of 4 blocks)\n\
         backend  store(KiB)  write(s)   full(s)  full(KiB)   roi(s)  roi(KiB)   iso(s)  iso(KiB)\n",
        d.name
    );
    let kib = |b: u64| b as f64 / 1024.0;
    let mut records = Vec::new();
    for backend in Backend::ALL {
        let cfg = StoreConfig::new(eb).with_chunk_blocks(4);
        let codec = backend.codec();
        let t0 = Instant::now();
        let buf = write_store(mr, &cfg, codec.as_ref());
        let t_write = t0.elapsed().as_secs_f64();
        let store_bytes = buf.len() as u64;
        let reader = StoreReader::from_bytes(buf).expect("fresh store must parse");

        // Full read: every chunk of every level.
        let t0 = Instant::now();
        let full = reader.read_all().expect("fresh store must decode");
        let t_full = t0.elapsed().as_secs_f64();
        let full_bytes = reader.bytes_decoded();

        // ROI read: features on the coarse level pick the fine-level box.
        let coarse_idx = reader.meta().levels.len() - 1;
        let coarse = &full.levels[coarse_idx];
        let factor = 1usize << coarse.level;
        let fine = reader.meta().levels[0].dims;
        let feats = hqmr_vis::surface_features(&coarse.to_field(mn), iso, 2);
        let (lo, hi) = hqmr_vis::features_bbox(&feats)
            .map(|(lo, hi)| {
                let lo = std::array::from_fn(|a| lo[a] * factor);
                let hi = [
                    (hi[0] * factor).min(fine.nx),
                    (hi[1] * factor).min(fine.ny),
                    (hi[2] * factor).min(fine.nz),
                ];
                (lo, hi)
            })
            .filter(|(lo, hi)| (0..3).all(|a| lo[a] < hi[a]))
            .unwrap_or_else(|| {
                // No coarse features: fall back to the central octant.
                (
                    [fine.nx / 4, fine.ny / 4, fine.nz / 4],
                    [3 * fine.nx / 4, 3 * fine.ny / 4, 3 * fine.nz / 4],
                )
            });
        reader.reset_counters();
        let t0 = Instant::now();
        let _roi = reader.read_roi(0, lo, hi, mn).expect("roi read");
        let t_roi = t0.elapsed().as_secs_f64();
        let roi_bytes = reader.bytes_decoded();

        // Isovalue read: min/max chunk skipping on the fine level.
        reader.reset_counters();
        let t0 = Instant::now();
        let _skim = reader.read_level_iso(0, iso).expect("iso read");
        let t_iso = t0.elapsed().as_secs_f64();
        let iso_bytes = reader.bytes_decoded();

        // Progressive refinement: coarse→fine, cumulative bytes per step.
        reader.reset_counters();
        let mut steps = Vec::new();
        let t0 = Instant::now();
        for step in reader.progressive(Upsample::Nearest) {
            let step = step.expect("progressive step");
            steps.push((
                step.level,
                t0.elapsed().as_secs_f64(),
                reader.bytes_decoded(),
            ));
        }

        writeln!(
            out,
            "{:7} {:11.1} {t_write:9.4} {t_full:9.4} {:10.1} {t_roi:8.4} {:9.1} {t_iso:8.4} {:9.1}",
            backend.name(),
            kib(store_bytes),
            kib(full_bytes),
            kib(roi_bytes),
            kib(iso_bytes),
        )
        .unwrap();
        for (level, s, bytes) in &steps {
            writeln!(
                out,
                "        progressive L{level}: {s:.4}s cumulative, {:.1} KiB decoded",
                kib(*bytes)
            )
            .unwrap();
        }

        let progressive = steps.iter().map(|&(level, s, bytes)| {
            obj! {"level": level, "cum_s": Json::num(s, 6), "cum_bytes": bytes}
        });
        records.push(obj! {
            "backend": backend.name(), "store_bytes": store_bytes, "write_s": Json::num(t_write, 6),
            "full_read_s": Json::num(t_full, 6), "full_read_bytes": full_bytes,
            "roi": vec![lo.to_vec(), hi.to_vec()], "roi_read_s": Json::num(t_roi, 6),
            "roi_read_bytes": roi_bytes, "iso_read_s": Json::num(t_iso, 6),
            "iso_read_bytes": iso_bytes, "progressive": progressive.collect::<Vec<_>>(),
        });
    }
    let root = obj! {
        "dataset": d.name, "scale": scale, "rel_eb": Json::Raw("8e-3".into()),
        "chunk_blocks": 4usize, "records": Json::Rows(records),
    };
    crate::write_root_json("BENCH_store.json", &root, &mut out);
    out
}

/// Codec-backend matrix: backend × arrangement × error bound on Nyx-T1,
/// reporting compression ratio, PSNR over stored cells, and wall-clock
/// throughput per direction. Besides the text report, the full matrix lands
/// in `BENCH_codecs.json` at the workspace root so future changes have a
/// perf trajectory to compare against.
pub fn codecs(scale: usize) -> String {
    use std::time::Instant;
    let d = datasets::nyx_t1(scale, 81);
    let mr = d.mr.as_ref().unwrap();
    let range = d.range();
    let arrangements: [(&str, MkConfig); 3] = [
        ("baseline", MrcConfig::baseline),
        ("amric", MrcConfig::amric),
        ("ours", MrcConfig::ours_pad),
    ];
    let rels = [1e-3, 8e-3, 5e-2];
    let stored_mb = (mr.total_cells() * 4) as f64 / (1024.0 * 1024.0);

    let mut out = format!(
        "Codec matrix — {} (scale {scale}, {:.1} MiB stored)\n\
         backend arrange   rel_eb       CR     PSNR  comp(MiB/s)  dec(MiB/s)\n",
        d.name, stored_mb
    );
    let mut records = Vec::new();
    let vals_a: Vec<f32> = mr.levels.iter().flat_map(level_values).collect();
    for backend in Backend::ALL {
        for (aname, mk) in arrangements {
            for rel in rels {
                let cfg = mk(range * rel).with_backend(backend);
                let t0 = Instant::now();
                let (bytes, stats) = compress_mr(mr, &cfg);
                let t_comp = t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                let back = decompress_mr(&bytes).expect("fresh stream must decompress");
                let t_dec = t1.elapsed().as_secs_f64();
                let vals_b: Vec<f32> = back.levels.iter().flat_map(level_values).collect();
                let p = psnr_slices(&vals_a, &vals_b);
                writeln!(
                    out,
                    "{:7} {aname:8} {rel:8.0e} {:8.1} {:8.2} {:12.1} {:11.1}",
                    backend.name(),
                    stats.ratio(),
                    p,
                    stored_mb / t_comp.max(1e-9),
                    stored_mb / t_dec.max(1e-9),
                )
                .unwrap();
                records.push(obj! {
                    "backend": backend.name(), "arrangement": aname,
                    "rel_eb": Json::Raw(format!("{rel:e}")), "bytes": bytes.len(),
                    "cr": Json::num(stats.ratio(), 3), "psnr": Json::num(p, 3),
                    "compress_s": Json::num(t_comp, 6), "decompress_s": Json::num(t_dec, 6),
                });
            }
        }
    }
    let root = obj! {
        "dataset": d.name, "scale": scale, "stored_cells": mr.total_cells(),
        "records": Json::Rows(records),
    };
    crate::write_root_json("BENCH_codecs.json", &root, &mut out);
    out
}

/// Serving-layer benchmark (`BENCH_serve.json`): cold vs warm vs
/// 16-concurrent-client throughput of the `hqmr-serve` chunk-cache layer,
/// per codec backend, on a viewer-like query mix (sliding ROI bricks, an
/// isovalue skim, a coarse overview). Three effects are measured:
///
/// * **cold vs warm** — the LRU cache turns repeat queries into assembly
///   only (no fetch, CRC or codec work);
/// * **batched** — `serve_batch` unions overlapping requests, so one batch
///   decodes each chunk once even with the cache disabled;
/// * **concurrent clients** — 16 threads over one *cold* shared server:
///   single-flight + the shared cache mean the fleet collectively decodes
///   each chunk once, so aggregate throughput scales with the client count
///   instead of redoing the work 16× (this host has 1 core, so the win is
///   pure work-sharing, not parallel decode).
pub fn serve(scale: usize) -> String {
    use hqmr_serve::{Query, StoreServer};
    use hqmr_store::{write_store, StoreConfig, StoreReader};
    use std::sync::Arc;
    use std::time::Instant;

    const CLIENTS: usize = 16;
    let d = datasets::nyx_t1(scale, 97);
    let mr = d.mr.as_ref().unwrap();
    let eb = d.range() * 8e-3;
    let (mn, mx) = d.field.min_max();
    let queries = load::viewer_mix(mr, mn, mn + 0.6 * (mx - mn));

    let run_client = |server: &StoreServer| {
        for q in &queries {
            match *q {
                Query::Roi {
                    level,
                    lo,
                    hi,
                    fill,
                } => {
                    std::hint::black_box(server.read_roi(level, lo, hi, fill).expect("roi"));
                }
                Query::Iso { level, iso } => {
                    std::hint::black_box(server.read_level_iso(level, iso).expect("iso"));
                }
                Query::Level { level } => {
                    std::hint::black_box(server.read_level(level).expect("level"));
                }
            }
        }
    };

    let mut out = format!(
        "Serving layer — {} (scale {scale}, rel eb 8e-3, chunks of 4 blocks, {} queries/pass)\n\
         backend  cold(s)   warm(s)  warm_speedup  batch(s)  1-client(q/s)  {CLIENTS}-client agg(q/s)  agg_speedup\n",
        d.name,
        queries.len()
    );
    let mut records = Vec::new();
    for backend in Backend::ALL {
        let cfg = StoreConfig::new(eb).with_chunk_blocks(4);
        let codec = backend.codec();
        let buf = write_store(mr, &cfg, codec.as_ref());
        let mk_server =
            || StoreServer::unbounded(Arc::new(StoreReader::from_bytes(buf.clone()).unwrap()));

        // Cold: every chunk the mix touches decodes (once — later queries in
        // the pass already reuse the cache, which is the serving point).
        let server = mk_server();
        let t0 = Instant::now();
        run_client(&server);
        let cold_s = t0.elapsed().as_secs_f64();
        let cold_stats = server.stats();
        let cold_bytes = server.reader().bytes_decoded();

        // Warm: same mix again, answered from the resident cache.
        const WARM_REPS: usize = 3;
        let t0 = Instant::now();
        for _ in 0..WARM_REPS {
            run_client(&server);
        }
        let warm_s = t0.elapsed().as_secs_f64() / WARM_REPS as f64;
        let warm_speedup = cold_s / warm_s;

        // Batched: the planner unions the same mix into one decode set.
        let server_b = mk_server();
        let t0 = Instant::now();
        std::hint::black_box(server_b.serve_batch(&queries).expect("batch"));
        let batch_s = t0.elapsed().as_secs_f64();

        // 16 concurrent clients on one cold server: single-flight + shared
        // cache collapse the fleet's decodes to one per chunk.
        let server_c = mk_server();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                let server_c = &server_c;
                s.spawn(move || run_client(server_c));
            }
        });
        let conc_s = t0.elapsed().as_secs_f64();
        let conc_stats = server_c.stats();

        let single_qps = queries.len() as f64 / cold_s;
        let agg_qps = (CLIENTS * queries.len()) as f64 / conc_s;
        let agg_speedup = agg_qps / single_qps;
        writeln!(
            out,
            "{:7} {cold_s:8.4} {warm_s:9.5} {warm_speedup:13.1} {batch_s:9.4} {single_qps:14.1} {agg_qps:19.1} {agg_speedup:12.1}",
            backend.name(),
        )
        .unwrap();
        writeln!(
            out,
            "        cold: {} misses, {} hits, {:.1} KiB decoded; {CLIENTS}-client: {} misses, {} hits ({} shared waits)",
            cold_stats.misses,
            cold_stats.hits,
            cold_bytes as f64 / 1024.0,
            conc_stats.misses,
            conc_stats.hits,
            conc_stats.shared,
        )
        .unwrap();

        records.push(obj! {
            "backend": backend.name(), "store_bytes": buf.len(), "cold_s": Json::num(cold_s, 6),
            "warm_s": Json::num(warm_s, 6), "warm_speedup": Json::num(warm_speedup, 2),
            "batch_cold_s": Json::num(batch_s, 6), "single_client_qps": Json::num(single_qps, 2),
            "concurrent_agg_qps": Json::num(agg_qps, 2), "agg_speedup": Json::num(agg_speedup, 2),
            "cold_cache": obj! {
                "requests": cold_stats.requests, "hits": cold_stats.hits,
                "misses": cold_stats.misses, "bytes_decoded": cold_bytes,
            },
            "concurrent_cache": obj! {
                "requests": conc_stats.requests, "hits": conc_stats.hits,
                "shared": conc_stats.shared, "misses": conc_stats.misses,
                "resident_bytes": conc_stats.resident_bytes,
            },
        });
    }
    let root = obj! {
        "dataset": d.name, "scale": scale, "rel_eb": Json::Raw("8e-3".into()),
        "chunk_blocks": 4usize, "queries_per_pass": queries.len(), "clients": CLIENTS,
        "records": Json::Rows(records),
    };
    crate::write_root_json("BENCH_serve.json", &root, &mut out);
    out
}

/// Hot-path throughput: every overhauled stage measured against the
/// reference implementation it replaced, on real Nyx-T1 inputs —
/// word-at-a-time bit-IO and table-driven Huffman (entropy overhaul) plus
/// the predictor/quantizer kernel rows (line-kernel SZ3 passes,
/// interior-split SZ2 blocks, in-place/fused ZFP transform + batched
/// bit-plane decode), a store-write throughput row, the per-chunk decode
/// floor (`chunk_floor`: µs per `decompress` of small cubes, median and MAD
/// over repeated runs), and end-to-end codec throughput for context. Emits
/// `BENCH_hotpath.json` at the workspace root so the before/after MB/s is
/// committed evidence.
pub fn hotpath(scale: usize) -> String {
    use hqmr_codec::bitio;
    use hqmr_codec::{
        huffman_decode, huffman_decode_reference, huffman_encode, huffman_encode_reference,
        kernels, tag, unpack_maybe_rle, Codec, Container,
    };
    use std::time::Instant;

    /// Best-of-N wall-clock of `f`, in seconds.
    fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            std::hint::black_box(f());
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    }

    let d = datasets::nyx_t1(scale, 81);
    let mr = d.mr.as_ref().unwrap();
    let eb = d.range() * 1e-3;

    // The real entropy workload: every Huffman block inside the SZ3 streams
    // of the paper-default arrangement (one per prepared array).
    let prepared = hqmr_core::mrc::prepare_mr(mr, &MrcConfig::ours_pad(eb));
    let codec = hqmr_sz3::Sz3Codec::default();
    let mut blocks: Vec<Vec<u8>> = Vec::new();
    let mut symbol_count = 0usize;
    for prep in &prepared {
        for (_, f) in prep.blocks() {
            let stream = codec.compress(f, eb);
            let c = Container::from_bytes(&stream).expect("fresh stream parses");
            let packed = c.require(tag(b"QNTC")).expect("codes section present");
            let block = unpack_maybe_rle(packed).expect("codes unpack");
            symbol_count += huffman_decode(&block).expect("fresh block decodes").len();
            blocks.push(block);
        }
    }
    let symbol_mb = (symbol_count * 4) as f64 / (1024.0 * 1024.0);

    let reps = 7;
    // (stage, before MB/s, after MB/s, forced-scalar MB/s for SIMD-dispatched
    // kernels — `None` for stages with no vector arm).
    let mut records: Vec<(&str, f64, f64, Option<f64>)> = Vec::new();

    let t_dec_ref = best_of(reps, || {
        blocks
            .iter()
            .map(|b| huffman_decode_reference(b).unwrap().len())
            .sum::<usize>()
    });
    let t_dec_tab = best_of(reps, || {
        blocks
            .iter()
            .map(|b| huffman_decode(b).unwrap().len())
            .sum::<usize>()
    });
    records.push((
        "huffman_decode",
        symbol_mb / t_dec_ref,
        symbol_mb / t_dec_tab,
        None,
    ));

    let symbol_sets: Vec<Vec<u32>> = blocks.iter().map(|b| huffman_decode(b).unwrap()).collect();
    let t_enc_ref = best_of(reps, || {
        symbol_sets
            .iter()
            .map(|s| huffman_encode_reference(s).len())
            .sum::<usize>()
    });
    let t_enc_tab = best_of(reps, || {
        symbol_sets
            .iter()
            .map(|s| huffman_encode(s).len())
            .sum::<usize>()
    });
    records.push((
        "huffman_encode",
        symbol_mb / t_enc_ref,
        symbol_mb / t_enc_tab,
        None,
    ));

    // Bit-IO on a ZFP-like width mix (bit-plane coding interleaves 1-bit
    // group tests with up-to-64-bit verbatim runs).
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let pattern: Vec<(u64, u32)> = (0..400_000)
        .map(|_| {
            x = x.rotate_left(11).wrapping_mul(0x2545_F491_4F6C_DD1D);
            (x, 1 + (x % 24) as u32)
        })
        .collect();
    let total_bits: usize = pattern.iter().map(|&(_, n)| n as usize).sum();
    let bit_mb = (total_bits / 8) as f64 / (1024.0 * 1024.0);
    let t_w_ref = best_of(reps, || {
        let mut w = bitio::reference::BitWriter::new();
        for &(v, n) in &pattern {
            w.write_bits(v, n);
        }
        w.finish().len()
    });
    let t_w_word = best_of(reps, || {
        let mut w = bitio::BitWriter::new();
        for &(v, n) in &pattern {
            w.write_bits(v, n);
        }
        w.finish().len()
    });
    records.push(("bitio_write", bit_mb / t_w_ref, bit_mb / t_w_word, None));

    let mut w = bitio::BitWriter::new();
    for &(v, n) in &pattern {
        w.write_bits(v, n);
    }
    let stream = w.finish();
    let t_r_ref = best_of(reps, || {
        let mut r = bitio::reference::BitReader::new(&stream);
        pattern
            .iter()
            .fold(0u64, |a, &(_, n)| a.wrapping_add(r.read_bits(n)))
    });
    let t_r_word = best_of(reps, || {
        let mut r = bitio::BitReader::new(&stream);
        pattern
            .iter()
            .fold(0u64, |a, &(_, n)| a.wrapping_add(r.read_bits(n)))
    });
    records.push(("bitio_read", bit_mb / t_r_ref, bit_mb / t_r_word, None));

    // Predictor/quantizer kernel rows: full codec compress/decompress,
    // reference vs current, over the same prepared arrays. The entropy
    // stage is shared between the two paths, so the delta isolates the
    // kernel overhaul (line kernels / interior splits / fused transform).
    // The third column repeats the current path under `HQMR_FORCE_SCALAR`
    // so the SIMD dispatch contribution is visible in isolation; streams
    // are bit-identical across arms, only the clock differs.
    let stored_mb = (mr.total_cells() * 4) as f64 / (1024.0 * 1024.0);
    let fields: Vec<&hqmr_grid::Field3> = prepared.iter().flat_map(|p| p.fields()).collect();
    {
        use hqmr_sz3::Sz3Config;
        let cfg = Sz3Config::new(eb);
        let t_ref = best_of(reps, || {
            fields
                .iter()
                .map(|f| hqmr_sz3::reference::compress(f, &cfg).bytes.len())
                .sum::<usize>()
        });
        let t_cur = best_of(reps, || {
            fields
                .iter()
                .map(|f| hqmr_sz3::compress(f, &cfg).bytes.len())
                .sum::<usize>()
        });
        kernels::set_force_scalar(true);
        let t_sca = best_of(reps, || {
            fields
                .iter()
                .map(|f| hqmr_sz3::compress(f, &cfg).bytes.len())
                .sum::<usize>()
        });
        kernels::set_force_scalar(false);
        records.push((
            "sz3_compress_kernel",
            stored_mb / t_ref,
            stored_mb / t_cur,
            Some(stored_mb / t_sca),
        ));
        let streams: Vec<Vec<u8>> = fields
            .iter()
            .map(|f| hqmr_sz3::compress(f, &cfg).bytes)
            .collect();
        let t_ref = best_of(reps, || {
            streams
                .iter()
                .map(|b| hqmr_sz3::reference::decompress(b).unwrap().len())
                .sum::<usize>()
        });
        let t_cur = best_of(reps, || {
            streams
                .iter()
                .map(|b| hqmr_sz3::decompress(b).unwrap().len())
                .sum::<usize>()
        });
        kernels::set_force_scalar(true);
        let t_sca = best_of(reps, || {
            streams
                .iter()
                .map(|b| hqmr_sz3::decompress(b).unwrap().len())
                .sum::<usize>()
        });
        kernels::set_force_scalar(false);
        records.push((
            "sz3_decompress_kernel",
            stored_mb / t_ref,
            stored_mb / t_cur,
            Some(stored_mb / t_sca),
        ));
    }
    {
        use hqmr_sz2::Sz2Config;
        let cfg = Sz2Config::multires(eb);
        let t_ref = best_of(reps, || {
            fields
                .iter()
                .map(|f| hqmr_sz2::reference::compress(f, &cfg).bytes.len())
                .sum::<usize>()
        });
        let t_cur = best_of(reps, || {
            fields
                .iter()
                .map(|f| hqmr_sz2::compress(f, &cfg).bytes.len())
                .sum::<usize>()
        });
        kernels::set_force_scalar(true);
        let t_sca = best_of(reps, || {
            fields
                .iter()
                .map(|f| hqmr_sz2::compress(f, &cfg).bytes.len())
                .sum::<usize>()
        });
        kernels::set_force_scalar(false);
        records.push((
            "sz2_compress_kernel",
            stored_mb / t_ref,
            stored_mb / t_cur,
            Some(stored_mb / t_sca),
        ));
        let streams: Vec<Vec<u8>> = fields
            .iter()
            .map(|f| hqmr_sz2::compress(f, &cfg).bytes)
            .collect();
        let t_ref = best_of(reps, || {
            streams
                .iter()
                .map(|b| hqmr_sz2::reference::decompress(b).unwrap().len())
                .sum::<usize>()
        });
        let t_cur = best_of(reps, || {
            streams
                .iter()
                .map(|b| hqmr_sz2::decompress(b).unwrap().len())
                .sum::<usize>()
        });
        kernels::set_force_scalar(true);
        let t_sca = best_of(reps, || {
            streams
                .iter()
                .map(|b| hqmr_sz2::decompress(b).unwrap().len())
                .sum::<usize>()
        });
        kernels::set_force_scalar(false);
        records.push((
            "sz2_decompress_kernel",
            stored_mb / t_ref,
            stored_mb / t_cur,
            Some(stored_mb / t_sca),
        ));
    }
    {
        use hqmr_zfp::ZfpConfig;
        let cfg = ZfpConfig::new(eb);
        let t_ref = best_of(reps, || {
            fields
                .iter()
                .map(|f| hqmr_zfp::reference::compress(f, &cfg).bytes.len())
                .sum::<usize>()
        });
        let t_cur = best_of(reps, || {
            fields
                .iter()
                .map(|f| hqmr_zfp::compress(f, &cfg).bytes.len())
                .sum::<usize>()
        });
        kernels::set_force_scalar(true);
        let t_sca = best_of(reps, || {
            fields
                .iter()
                .map(|f| hqmr_zfp::compress(f, &cfg).bytes.len())
                .sum::<usize>()
        });
        kernels::set_force_scalar(false);
        records.push((
            "zfp_compress_kernel",
            stored_mb / t_ref,
            stored_mb / t_cur,
            Some(stored_mb / t_sca),
        ));
        let streams: Vec<Vec<u8>> = fields
            .iter()
            .map(|f| hqmr_zfp::compress(f, &cfg).bytes)
            .collect();
        let t_ref = best_of(reps, || {
            streams
                .iter()
                .map(|b| hqmr_zfp::reference::decompress(b).unwrap().len())
                .sum::<usize>()
        });
        let t_cur = best_of(reps, || {
            streams
                .iter()
                .map(|b| hqmr_zfp::decompress(b).unwrap().len())
                .sum::<usize>()
        });
        kernels::set_force_scalar(true);
        let t_sca = best_of(reps, || {
            streams
                .iter()
                .map(|b| hqmr_zfp::decompress(b).unwrap().len())
                .sum::<usize>()
        });
        kernels::set_force_scalar(false);
        records.push((
            "zfp_decompress_kernel",
            stored_mb / t_ref,
            stored_mb / t_cur,
            Some(stored_mb / t_sca),
        ));
    }

    // Store-write throughput (the production-critical in-situ direction),
    // with the parallel full read alongside so the write/read gap is
    // committed evidence.
    let (store_write_mbps, store_read_mbps, tile_threads) = {
        use hqmr_store::{write_store, write_store_into, ChunkSource, StoreConfig, StoreReader};
        let cfg = StoreConfig::new(eb).with_chunk_blocks(4);
        let codec = hqmr_sz3::Sz3Codec::default();
        let mut buf = Vec::new();
        let t_w = best_of(reps, || {
            write_store_into(mr, &cfg, &codec, &mut buf);
            buf.len()
        });
        let reader = StoreReader::from_bytes(write_store(mr, &cfg, &codec)).expect("store parses");
        let t_r = best_of(reps, || {
            reader.read_all().expect("store decodes").levels.len()
        });

        // Single-chunk decode: the serve-path unit of work on a cache miss.
        // Both arms decode the largest chunk in the store; "before" forces
        // the serial path, "after" allows intra-chunk tile parallelism.
        // The gap scales with `tile_threads` — on a single-core runner the
        // arms coincide because the rayon shim degrades to inline calls.
        let (mut lv, mut blk, mut cells) = (0usize, 0usize, 0usize);
        for (l, lm) in reader.store_meta().levels.iter().enumerate() {
            for (b, c) in lm.chunks.iter().enumerate() {
                let n = c.slots.len() * c.unit.pow(3);
                if n > cells {
                    (lv, blk, cells) = (l, b, n);
                }
            }
        }
        let chunk_mb = (cells * 4) as f64 / (1024.0 * 1024.0);
        kernels::set_tile_parallel(false);
        let t_ser = best_of(reps, || reader.decode_chunk(lv, blk).unwrap().data.len());
        kernels::set_tile_parallel(true);
        let t_par = best_of(reps, || reader.decode_chunk(lv, blk).unwrap().data.len());
        records.push((
            "single_chunk_decode",
            chunk_mb / t_ser,
            chunk_mb / t_par,
            None,
        ));
        let threads = rayon::current_num_threads();
        (stored_mb / t_w, stored_mb / t_r, threads)
    };

    // Per-chunk decode floor: µs per `decompress` of one small cube cut
    // from the centre of the field, for each backend. A store chunk of a few
    // unit blocks is this small, so any cost that does not scale with the
    // cube shows up here as a floor.
    const FLOOR_RUNS: usize = 7;
    let mut floor: Vec<(&str, usize, f64, f64)> = Vec::new();
    {
        let codecs: [(&str, Box<dyn Codec>); 3] = [
            ("sz3", Box::new(hqmr_sz3::Sz3Codec::default())),
            ("sz2", Box::new(hqmr_sz2::Sz2Codec::MULTIRES)),
            ("zfp", Box::new(hqmr_zfp::ZfpCodec)),
        ];
        let fd = d.field.dims();
        for side in [4usize, 8, 16] {
            let origin = [
                fd.nx.saturating_sub(side) / 2,
                fd.ny.saturating_sub(side) / 2,
                fd.nz.saturating_sub(side) / 2,
            ];
            let cube = d.field.extract_box(origin, Dims3::cube(side));
            // Enough calls per run that one run spans a few milliseconds.
            let iters = 32_768 / side.pow(2);
            for (name, codec) in &codecs {
                let bytes = codec.compress(&cube, eb);
                let mut runs: Vec<f64> = (0..FLOOR_RUNS)
                    .map(|_| {
                        let t = Instant::now();
                        for _ in 0..iters {
                            std::hint::black_box(codec.decompress(&bytes).unwrap());
                        }
                        t.elapsed().as_secs_f64() * 1e6 / iters as f64
                    })
                    .collect();
                runs.sort_by(f64::total_cmp);
                let median = load::pct(&runs, 0.5);
                let mut dev: Vec<f64> = runs.iter().map(|r| (r - median).abs()).collect();
                dev.sort_by(f64::total_cmp);
                floor.push((name, side, median, load::pct(&dev, 0.5)));
            }
        }
    }

    let mut out = format!(
        "Hot-path throughput — {} (scale {scale}, {:.2} MiB of quant codes, \
         {} Huffman blocks, {tile_threads} thread(s))\n\
         stage                 before(MB/s)  after(MB/s)  scalar(MB/s)  speedup\n",
        d.name,
        symbol_mb,
        blocks.len()
    );
    for (stage, before, after, scalar) in &records {
        let sca = scalar.map_or("           -".into(), |s| format!("{s:12.1}"));
        writeln!(
            out,
            "{stage:21} {before:12.1} {after:12.1} {sca}  {:6.2}x",
            after / before
        )
        .unwrap();
    }
    writeln!(
        out,
        "\nchunk floor (decompress of one cube, µs, median ± MAD of {FLOOR_RUNS} runs, \
         {tile_threads} thread(s)):"
    )
    .unwrap();
    for (name, side, median, mad) in &floor {
        writeln!(out, "{name:4} {side:2}³ {median:9.2} ± {mad:.2}").unwrap();
    }
    writeln!(
        out,
        "\nstore write (sz3, 4-block chunks): {store_write_mbps:8.1} MB/s \
         (full parallel read: {store_read_mbps:.1} MB/s)"
    )
    .unwrap();

    // End-to-end codec throughput on the same data (context: the entropy
    // stage is one term of the full pipeline).
    writeln!(out, "\nend-to-end (paper arrangement, rel_eb 1e-3):").unwrap();
    let mut e2e = Vec::new();
    for backend in [Backend::SZ3, Backend::SZ2, Backend::ZFP] {
        let cfg = MrcConfig::ours_pad(eb).with_backend(backend);
        let t_c = best_of(5, || compress_mr(mr, &cfg).0.len());
        let bytes = compress_mr(mr, &cfg).0;
        let t_d = best_of(5, || decompress_mr(&bytes).unwrap().levels.len());
        writeln!(
            out,
            "{:7} compress {:8.1} MB/s   decompress {:8.1} MB/s",
            backend.name(),
            stored_mb / t_c,
            stored_mb / t_d
        )
        .unwrap();
        e2e.push(obj! {
            "backend": backend.name(), "compress_MBps": Json::num(stored_mb / t_c, 1),
            "decompress_MBps": Json::num(stored_mb / t_d, 1),
        });
    }

    let stages = records.iter().map(|&(stage, before, after, scalar)| {
        let mut rec = vec![
            ("stage", Json::from(stage)),
            ("before_MBps", Json::num(before, 1)),
            ("after_MBps", Json::num(after, 1)),
        ];
        rec.extend(scalar.map(|s| ("scalar_MBps", Json::num(s, 1))));
        rec.push(("speedup", Json::num(after / before, 3)));
        Json::Obj(rec)
    });
    let floor_rows = floor.iter().map(|&(name, side, median, mad)| {
        obj! {
            "codec": name, "side": side, "decompress_us_median": Json::num(median, 2),
            "decompress_us_mad": Json::num(mad, 2),
        }
    });
    let root = obj! {
        "dataset": d.name, "scale": scale, "stored_mb": Json::num(stored_mb, 3),
        "symbol_mb": Json::num(symbol_mb, 3), "symbol_count": symbol_count,
        "tile_threads": tile_threads, "records": Json::Rows(stages.collect()),
        "store_write": obj! {
            "backend": "sz3", "chunk_blocks": 4usize, "write_MBps": Json::num(store_write_mbps, 1),
            "full_read_MBps": Json::num(store_read_mbps, 1),
        },
        "chunk_floor": obj! {
            "available_parallelism": tile_threads, "runs": FLOOR_RUNS,
            "rows": Json::Rows(floor_rows.collect()),
        },
        "end_to_end": Json::Rows(e2e),
    };
    crate::write_root_json("BENCH_hotpath.json", &root, &mut out);
    out
}

/// Network serving benchmark (`BENCH_net.json`): per-request latency
/// (p50/p99) and aggregate QPS of the `hqmr-net` fleet over real TCP
/// loopback, across client count × cache budget, plus a deliberately
/// saturated cell (1 worker, depth-1 queue, cache off, 16 clients) showing
/// overload surfacing as typed `Busy` responses — bounded answers, not an
/// unbounded backlog. Each request is one single-query batch from a
/// viewer-like mix (ROI bricks, an isovalue skim, a coarse overview), so a
/// latency sample is one full round-trip: encode, two socket hops, shard
/// dispatch, serve, decode.
pub fn net(scale: usize) -> String {
    use hqmr_net::{NetClient, NetConfig};
    use hqmr_serve::UNBOUNDED;
    use hqmr_store::{write_store, StoreConfig};

    const PASSES: usize = 3;
    let d = datasets::nyx_t1(scale, 53);
    let mr = d.mr.as_ref().unwrap();
    let eb = d.range() * 8e-3;
    let (mn, mx) = d.field.min_max();

    // Same viewer-like mix as the in-process serving bench, issued as
    // individual requests so each one is a latency sample.
    let mix = load::viewer_mix(mr, mn, mn + 0.6 * (mx - mn));

    let scfg = StoreConfig::new(eb).with_chunk_blocks(4);
    let buf = write_store(mr, &scfg, &hqmr_sz3::Sz3Codec::default());
    let store_bytes = buf.len();
    // A fresh fleet per cell (cold cache), driven by plain one-attempt
    // batches; Busy answers are retried by the driver and counted.
    let run = |cfg: NetConfig, clients: usize, passes: usize| {
        let server = load::fleet(d.name, &buf, cfg);
        let addr = server.local_addr();
        let connect = |_| NetClient::connect(addr).expect("connect");
        let tally = load::drive(clients, passes, &mix, connect, |c, q| {
            c.batch(0, std::slice::from_ref(q)).map(|_| true)
        });
        (server, tally)
    };

    let budgets: [(&str, usize); 2] = [("64KiB", 64 << 10), ("unbounded", UNBOUNDED)];
    let client_counts = [1usize, 4, 16];

    let mut out = format!(
        "Network serving — {} (scale {scale}, rel eb 8e-3, sz3 store {:.1} KiB, \
         {} requests/client-pass, {PASSES} passes, TCP loopback)\n\
         budget     clients   p50(ms)   p99(ms)   agg(q/s)   busy_retries   hits   misses\n",
        d.name,
        store_bytes as f64 / 1024.0,
        mix.len(),
    );
    let mut records = Vec::new();
    for (bname, budget) in budgets {
        for clients in client_counts {
            let cfg = NetConfig {
                cache_budget: budget,
                ..NetConfig::default()
            };
            let (server, t) = run(cfg, clients, PASSES);
            let (p50, p99) = (t.pct_ms(0.50), t.pct_ms(0.99));
            let qps = t.latency.len() as f64 / t.wall;
            let mut probe = NetClient::connect(server.local_addr()).expect("stats probe");
            let cache = probe.stats(0, false).expect("stats").cache;
            writeln!(
                out,
                "{bname:9} {clients:8} {p50:9.3} {p99:9.3} {qps:10.1} {:14} {:6} {:8}",
                t.busy, cache.hits, cache.misses,
            )
            .unwrap();
            records.push(obj! {
                "budget": bname, "clients": clients, "p50_ms": Json::num(p50, 4),
                "p99_ms": Json::num(p99, 4), "agg_qps": Json::num(qps, 2),
                "requests": t.latency.len(), "busy_retries": t.busy,
                "cache": obj! {
                    "requests": cache.requests, "hits": cache.hits, "misses": cache.misses,
                    "evictions": cache.evictions,
                },
            });
        }
    }

    // Saturation: a deliberately starved fleet — overload must surface as
    // typed Busy answers while every client still finishes its work.
    let starved = NetConfig {
        workers: 1,
        queue_depth: 1,
        cache_budget: 0,
        ..NetConfig::default()
    };
    let (server, t) = run(starved, 16, 1);
    let busy_server = server.busy_rejections();
    writeln!(
        out,
        "saturation (1 worker, queue depth 1, cache off, 16 clients): \
         {} requests in {:.2}s, {} Busy retries observed by clients \
         ({busy_server} rejected server-side), p99 {:.1} ms",
        t.latency.len(),
        t.wall,
        t.busy,
        t.pct_ms(0.99),
    )
    .unwrap();
    records.push(obj! {
        "budget": "saturation", "clients": 16usize, "workers": 1usize, "queue_depth": 1usize,
        "p50_ms": Json::num(t.pct_ms(0.50), 4), "p99_ms": Json::num(t.pct_ms(0.99), 4),
        "agg_qps": Json::num(t.latency.len() as f64 / t.wall, 2), "requests": t.latency.len(),
        "busy_retries": t.busy, "busy_rejections_server": busy_server,
    });

    let root = obj! {
        "dataset": d.name, "scale": scale, "rel_eb": Json::Raw("8e-3".into()),
        "store_bytes": store_bytes, "requests_per_pass": mix.len(), "passes": PASSES,
        "records": Json::Rows(records),
    };
    crate::write_root_json("BENCH_net.json", &root, &mut out);
    out
}

/// Fault-tolerance benchmark (`BENCH_faults.json`): availability, outcome
/// mix and tail latency of the fleet under seeded chaos. Three rows — no
/// chaos, light chaos, heavy chaos — each driving 8 retrying clients
/// through the degraded read path against a fleet with fault injection
/// armed. Every operation must finish (hangs are counted and must be
/// zero); failures must be the typed give-up. Availability is the fraction
/// of operations that returned data (exact or quality-flagged).
pub fn faults(scale: usize) -> String {
    use hqmr_store::{write_store, StoreConfig};

    const CLIENTS: usize = 8;
    const PASSES: usize = 3;
    const RETRIES: usize = 12;

    let d = datasets::nyx_t1(scale, 59);
    let mr = d.mr.as_ref().unwrap();
    let eb = d.range() * 8e-3;
    let (mn, mx) = d.field.min_max();

    let mix = load::chaos_mix(mr, mn, mn + 0.6 * (mx - mn));

    let scfg = StoreConfig::new(eb).with_chunk_blocks(4);
    let buf = write_store(mr, &scfg, &hqmr_sz3::Sz3Codec::default());
    let store_bytes = buf.len();

    // Deterministic per-row fault levels, keyed to one fixed seed.
    let rows: [(&str, Option<&str>); 3] = [
        ("none", None),
        (
            "light",
            Some("drop:0.01,stall:1ms@0.05,flip:0.01,seed:4242"),
        ),
        (
            "heavy",
            Some("drop:0.05,partial:0.03,wire:0.02,stall:2ms@0.15,flip:0.05,seed:4242"),
        ),
    ];

    let mut out = format!(
        "Fault tolerance — {} (scale {scale}, sz3 store {:.1} KiB, {CLIENTS} clients × \
         {PASSES} passes × {} ops, retry budget {RETRIES}, degraded reads)\n\
         chaos    avail(%)   exact   degraded   gave_up   hangs   p50(ms)   p99(ms)   deadline   busy\n",
        d.name,
        store_bytes as f64 / 1024.0,
        mix.len(),
    );
    let mut records = Vec::new();
    for (row, chaos) in rows {
        let server = load::fleet(d.name, &buf, load::chaos_fleet(chaos));
        // Chaos shoots down handshakes too; redial up to 100 times.
        let t = load::chaos_drive(
            server.local_addr(),
            CLIENTS,
            PASSES,
            &mix,
            0xFA17,
            100,
            RETRIES,
        );

        let avail =
            100.0 * (t.exact + t.degraded) as f64 / (t.exact + t.degraded + t.gave_up) as f64;
        let (p50, p99) = (t.pct_ms(0.50), t.pct_ms(0.99));
        let (dl, busy) = (server.deadline_rejections(), server.busy_rejections());
        assert_eq!(t.hangs, 0, "chaos row `{row}` hung {} operations", t.hangs);
        if chaos.is_none() {
            assert_eq!(avail, 100.0, "clean row must be fully available");
            assert_eq!(t.degraded, 0, "clean row must not degrade");
        }

        writeln!(
            out,
            "{row:8} {avail:8.1} {:7} {:10} {:9} {:7} {p50:9.3} {p99:9.3} {dl:10} {busy:6}",
            t.exact, t.degraded, t.gave_up, t.hangs,
        )
        .unwrap();
        records.push(obj! {
            "chaos": row, "switches": chaos.unwrap_or(""), "availability_pct": Json::num(avail, 2),
            "exact": t.exact, "degraded": t.degraded, "gave_up": t.gave_up, "hangs": t.hangs,
            "p50_ms": Json::num(p50, 4), "p99_ms": Json::num(p99, 4), "deadline_rejections": dl,
            "busy_rejections": busy,
        });
    }

    let root = obj! {
        "dataset": d.name, "scale": scale, "store_bytes": store_bytes, "clients": CLIENTS,
        "passes": PASSES, "retry_budget": RETRIES, "records": Json::Rows(records),
    };
    crate::write_root_json("BENCH_faults.json", &root, &mut out);
    out
}

/// Temporal stores: compression-ratio win of inter-frame prediction over
/// independent per-frame snapshots, on an advected synthetic sequence at an
/// equal error bound. Streams the sequence through [`hqmr_core::TemporalWriter`] (the
/// crash-safe in-situ path), then re-opens the container and verifies every
/// reconstructed frame against its original field.
pub fn temporal(scale: usize) -> String {
    use hqmr_core::TemporalWriter;
    use hqmr_store::temporal::{Prediction, TemporalReader};
    use hqmr_store::{write_store, DEFAULT_CHUNK_BLOCKS};
    use std::time::Instant;

    const STEPS: usize = 6;
    let dims = Dims3::cube(scale);
    let frames = synth::advected_sequence(dims, STEPS, [0.4, 0.2, 0.1], 77);
    let (mn, mx) = frames[0].min_max();
    let eb = (mx - mn) as f64 * 8e-3;

    // Frame-stable structure: the ROI layout is chosen once (frame 0) and
    // every later timestep is poured into it, exactly as the in-situ
    // pipeline does — deltas only line up when block layouts match.
    let template = to_adaptive(&frames[0], &RoiConfig::new(8, 0.5));
    let mrs: Vec<MultiResData> = frames.iter().map(|f| resample_like(&template, f)).collect();

    let mut out = format!(
        "Temporal stores — advected GRF sequence ({STEPS} frames of {scale}³, rel eb 8e-3)\n\
         backend  indep(KiB)  temporal(KiB)   ratio  delta%   write(s)  max_err/eb\n"
    );
    let kib = |b: u64| b as f64 / 1024.0;
    let mut records = Vec::new();
    for backend in Backend::ALL {
        let cfg = MrcConfig::baseline(eb).with_backend(backend);
        let codec = backend.codec();

        // Baseline: each frame as an independent snapshot container.
        let scfg = cfg.store_config(DEFAULT_CHUNK_BLOCKS);
        let independent: u64 = mrs
            .iter()
            .map(|mr| write_store(mr, &scfg, codec.as_ref()).len() as u64)
            .sum();

        // Temporal: the same frames through the streaming delta writer.
        let dir = std::env::temp_dir().join(format!("hqmr_bench_temporal_{}", backend.name()));
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let mut writer =
            TemporalWriter::create(&dir, &cfg, Prediction::delta()).expect("create temporal dir");
        let (mut temporal, mut delta_chunks, mut total_chunks) = (0u64, 0usize, 0usize);
        for (t, mr) in mrs.iter().enumerate() {
            let rep = writer.append(t as u64, mr).expect("append frame");
            temporal += rep.bytes;
            delta_chunks += rep.delta_chunks;
            total_chunks += rep.total_chunks;
        }
        let t_write = t0.elapsed().as_secs_f64();

        // Verify the error bound holds per frame through the reader (delta
        // chains and all), against the original uncompressed fields.
        let reader = TemporalReader::open(&dir).expect("reopen temporal store");
        let mut max_err = 0.0f64;
        if backend != Backend::NULL {
            for (t, mr) in mrs.iter().enumerate() {
                let fine = reader.read_level(t, 0).expect("read fine level");
                let got = fine.to_field(mn);
                let want = mr.levels[0].to_field(mn);
                for (g, w) in got.data().iter().zip(want.data()) {
                    max_err = max_err.max((g - w).abs() as f64);
                }
            }
            assert!(
                max_err <= eb * (1.0 + 1e-6),
                "{}: max err {max_err} exceeds eb {eb}",
                backend.name()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);

        let ratio = independent as f64 / temporal as f64;
        let delta_pct = 100.0 * delta_chunks as f64 / total_chunks.max(1) as f64;
        writeln!(
            out,
            "{:7} {:11.1} {:14.1} {ratio:7.3} {delta_pct:6.1} {t_write:10.4} {:11.3}",
            backend.name(),
            kib(independent),
            kib(temporal),
            max_err / eb,
        )
        .unwrap();
        records.push(obj! {
            "backend": backend.name(), "independent_bytes": independent, "temporal_bytes": temporal,
            "ratio": Json::num(ratio, 4),
            "delta_chunk_frac": Json::num(delta_chunks as f64 / total_chunks.max(1) as f64, 4),
            "write_s": Json::num(t_write, 4), "max_err_over_eb": Json::num(max_err / eb, 4),
        });
    }
    let root = obj! {
        "dataset": "advected-grf", "scale": scale, "frames": STEPS,
        "rel_eb": Json::Raw("8e-3".into()), "records": Json::Rows(records),
    };
    crate::write_root_json("BENCH_temporal.json", &root, &mut out);
    out
}

/// Self-healing stores: availability and exactness under chunk rot with and
/// without parity sidecars, at-rest scrub throughput, parity overhead, and
/// torn-run salvage. The acceptance story: with sidecars armed, heavy rot
/// is *repaired* (served bit-exactly), not merely degraded; without them,
/// the degraded-read behaviour of the fault bench reappears.
pub fn scrub(scale: usize) -> String {
    use hqmr_net::{NetClient, NetConfig};
    use hqmr_store::temporal::{Prediction, TemporalReader};
    use hqmr_store::{
        parity_path, scrub_store, write_store_with_parity, StoreConfig, Throttle,
        DEFAULT_PARITY_GROUP,
    };
    use std::time::Instant;

    const CLIENTS: usize = 4;
    const PASSES: usize = 3;
    const RETRIES: usize = 8;

    let d = datasets::nyx_t1(scale, 61);
    let mr = d.mr.as_ref().unwrap();
    let eb = d.range() * 8e-3;
    let (mn, _mx) = d.field.min_max();

    // The chaos mix's overview and ROI reads; scrub skips the iso skim.
    let mix = &load::chaos_mix(mr, mn, mn)[..2];

    let scfg = StoreConfig::new(eb)
        .with_chunk_blocks(2)
        .with_parity_group(DEFAULT_PARITY_GROUP);
    let (buf, sidecar) = write_store_with_parity(mr, &scfg, &hqmr_sz3::Sz3Codec::default());
    let sidecar = sidecar.expect("parity enabled");
    let overhead = sidecar.len() as f64 / buf.len() as f64;
    let (head, _) = hqmr_store::parse_head(&buf).unwrap();
    let chunk_total: usize = head.levels.iter().map(|l| l.chunks.len()).sum();
    // One parity block per group costs ~1/group amortized; tiny smoke
    // scales leave partial groups dominating, so the budget is only
    // meaningful once groups actually fill.
    if chunk_total >= 4 * DEFAULT_PARITY_GROUP {
        assert!(
            overhead <= 0.15,
            "parity overhead {overhead:.3} exceeds the 15% budget at group \
             {DEFAULT_PARITY_GROUP} ({chunk_total} chunks)"
        );
    }

    // Chunk-rot levels: `flip:P` faults each (level, block) with
    // probability P at fetch time. `flip:1` rots every chunk — the
    // worst-case acceptance row.
    let rows: [(&str, Option<&str>); 3] = [
        ("none", None),
        ("light", Some("flip:0.1,seed:4242")),
        ("heavy", Some("flip:1,seed:4242")),
    ];

    let mut out = format!(
        "Self-healing stores — {} (scale {scale}, sz3 store {:.1} KiB, sidecar {:.1} KiB, \
         group {DEFAULT_PARITY_GROUP}, parity overhead {:.1}%)\n\
         chaos    parity   avail(%)   exact(%)   degraded   repairs   rep_fail   gave_up\n",
        d.name,
        buf.len() as f64 / 1024.0,
        sidecar.len() as f64 / 1024.0,
        overhead * 100.0,
    );
    let mut records = Vec::new();
    for (row, chaos) in rows {
        for parity_on in [false, true] {
            let cfg = NetConfig {
                parity_group: if parity_on { DEFAULT_PARITY_GROUP } else { 0 },
                ..load::chaos_fleet(chaos)
            };
            let server = load::fleet(d.name, &buf, cfg);
            let addr = server.local_addr();
            // No wire chaos is armed: every client's first handshake must hold.
            let t = load::chaos_drive(addr, CLIENTS, PASSES, mix, 0x5CB, 1, RETRIES);
            let (exact, degraded, gave_up) = (t.exact, t.degraded, t.gave_up);
            let mut probe = NetClient::connect(addr).expect("stats probe");
            let stats = probe.stats(0, false).expect("stats");
            let total = exact + degraded + gave_up;
            let avail = 100.0 * (exact + degraded) as f64 / total as f64;
            let exact_pct = 100.0 * exact as f64 / total as f64;

            // The acceptance criteria, asserted where they are measured.
            assert_eq!(gave_up, 0, "chunk rot must never cost availability");
            if parity_on {
                assert_eq!(
                    degraded, 0,
                    "row `{row}`: with sidecars every rotted chunk must repair, not degrade"
                );
                if chaos.is_some() {
                    assert!(stats.cache.repairs > 0, "row `{row}`: repairs must show");
                }
                assert_eq!(stats.cache.repair_failures, 0);
            } else if row == "heavy" {
                assert!(
                    degraded > 0,
                    "heavy rot without sidecars must fall back to degraded fills"
                );
            }

            writeln!(
                out,
                "{row:8} {:6}   {avail:8.1} {exact_pct:10.1} {degraded:10} {:9} {:10} {gave_up:9}",
                if parity_on { "on" } else { "off" },
                stats.cache.repairs,
                stats.cache.repair_failures,
            )
            .unwrap();
            records.push(obj! {
                "chaos": row, "parity": parity_on, "availability_pct": Json::num(avail, 2),
                "exact_pct": Json::num(exact_pct, 2), "exact": exact, "degraded": degraded,
                "gave_up": gave_up, "repairs": stats.cache.repairs,
                "repair_failures": stats.cache.repair_failures,
            });
        }
    }

    // At-rest scrub: flip a few chunks on disk, heal them in place, and
    // time a full unpaced verification pass.
    let dir = std::env::temp_dir().join("hqmr_bench_scrub");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.hqst");
    let mut rotted = buf.clone();
    let (meta, data_start) = hqmr_store::parse_head(&buf).unwrap();
    let mut flipped = 0usize;
    for (l, lm) in meta.levels.iter().enumerate() {
        for b in 0..lm.chunks.len() {
            // One casualty per parity group: always repairable.
            if (l + b) % DEFAULT_PARITY_GROUP == 0 && l == 0 {
                let c = &lm.chunks[b];
                rotted[data_start as usize + c.offset as usize] ^= 0x10;
                flipped += 1;
            }
        }
    }
    std::fs::write(&path, &rotted).unwrap();
    std::fs::write(parity_path(&path), &sidecar).unwrap();
    let t0 = Instant::now();
    let report = scrub_store(&path, Some(&mut Throttle::new(0))).expect("scrub");
    let scrub_s = t0.elapsed().as_secs_f64();
    assert!(report.all_exact(), "every planted flip must heal");
    assert_eq!(std::fs::read(&path).unwrap(), buf, "healed bit-exactly");
    let mbps = report.bytes_scanned as f64 / 1e6 / scrub_s.max(1e-9);
    writeln!(
        out,
        "\nAt-rest scrub: {} chunks verified, {} healed of {flipped} planted, \
         {:.1} MB scanned in {scrub_s:.3}s ({mbps:.0} MB/s, unpaced)",
        report.verified,
        report.repaired,
        report.bytes_scanned as f64 / 1e6,
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    // Torn-run salvage: crash a short temporal run mid-frame and recover.
    let steps = 4;
    let frames = synth::advected_sequence(Dims3::cube(scale.min(32)), steps, [0.5, 0.25, 0.0], 62);
    let template = to_adaptive(&frames[0], &RoiConfig::new(8, 0.5));
    let tdir = std::env::temp_dir().join("hqmr_bench_scrub_salvage");
    let _ = std::fs::remove_dir_all(&tdir);
    let mcfg = hqmr_core::MrcConfig::baseline(0.02);
    let mut writer = hqmr_core::TemporalWriter::create(&tdir, &mcfg, Prediction::delta()).unwrap();
    for (t, f) in frames.iter().enumerate() {
        writer
            .append(t as u64, &resample_like(&template, f))
            .unwrap();
    }
    drop(writer);
    let manifest = TemporalReader::read_manifest(&tdir).unwrap();
    let torn = tdir.join(&manifest.frames[steps - 1].file);
    let full = std::fs::read(&torn).unwrap();
    std::fs::write(&torn, &full[..full.len() / 2]).unwrap();
    let (_writer, salvage) =
        hqmr_core::TemporalWriter::salvage(&tdir, &mcfg, Prediction::delta()).expect("salvage");
    assert_eq!(salvage.kept, steps - 1, "the unbroken prefix survives");
    assert_eq!(salvage.dropped.len(), 1, "only the torn tail is dropped");
    writeln!(
        out,
        "Salvage: torn run of {steps} frames -> kept {} / dropped {:?} (repaired {} chunks)",
        salvage.kept, salvage.dropped, salvage.repaired_chunks,
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&tdir);

    let root = obj! {
        "dataset": d.name, "scale": scale, "store_bytes": buf.len(), "sidecar_bytes": sidecar.len(),
        "parity_group": DEFAULT_PARITY_GROUP, "parity_overhead": Json::num(overhead, 4),
        "records": Json::Rows(records),
        "at_rest": obj! {
            "verified": report.verified, "planted": flipped, "repaired": report.repaired,
            "bytes_scanned": report.bytes_scanned, "scrub_s": Json::num(scrub_s, 4),
            "scrub_mb_s": Json::num(mbps, 1),
        },
        "salvage": obj! {
            "frames": steps, "kept": salvage.kept, "dropped": salvage.dropped.len(),
            "repaired_chunks": salvage.repaired_chunks,
        },
    };
    crate::write_root_json("BENCH_scrub.json", &root, &mut out);
    out
}
