//! Golden kernel reports: every kernel family simulated cold on the Titan
//! Black, compared bit for bit against a fixture recorded from the
//! per-lane simulator.
//!
//! Each fixture line holds one kernel's name and the IEEE-754 bits of the
//! report fields the rest of the system consumes (`time`, `dram_bytes`,
//! `transaction_bytes`, `requested_bytes`, `l2_hit_rate`, `flops`). Any
//! change to how a kernel's accesses are traced or coalesced, however
//! small, changes at least one of these bits. The shapes mix aligned,
//! unaligned and partial-warp extents so edge tiles and partial warps are
//! covered next to the fully coalesced cases.
//!
//! On a mismatch the test writes the fresh rendering next to the test
//! binaries (the path is in the panic message) so the diff can be read.

use memcnn_gpusim::{simulate, DeviceConfig, KernelSpec, SimOptions};
use memcnn_kernels::backward::{
    conv_backward_chwn, conv_backward_nchw, elementwise_backward, pool_backward_spec,
};
use memcnn_kernels::conv::direct_chwn::DirectConvChwn;
use memcnn_kernels::conv::fft_nchw::{FftConvMode, FftConvNchw};
use memcnn_kernels::conv::mm_nchw::MmConvNchw;
use memcnn_kernels::conv::winograd::WinogradConvNchw;
use memcnn_kernels::gemm_model::{GemmConfig, GemmKernel};
use memcnn_kernels::layers::{fc_kernel, ElementwiseKernel, LrnKernel};
use memcnn_kernels::pool::chwn::PoolChwn;
use memcnn_kernels::pool::nchw::{PoolNchwCaffe, PoolNchwCudnn};
use memcnn_kernels::softmax::{
    cudnn_pipeline, five_kernel_pipeline, SoftmaxFused, SoftmaxFusedSerial,
};
use memcnn_kernels::transform::{TransformImpl, TransformKernel};
use memcnn_kernels::{ConvShape, PoolShape, SoftmaxShape};
use memcnn_tensor::{Layout, Shape};

const FIXTURE: &str = include_str!("golden/kernel_reports.txt");

/// Conv shapes: aligned (N=128), unaligned Co and padding (N=64, Co=48),
/// partial warps (N=16, N=40) and strided.
fn conv_shapes() -> Vec<(&'static str, ConvShape)> {
    vec![
        ("aligned", ConvShape::table1(128, 64, 12, 5, 64, 1)),
        ("padded", ConvShape { pad: 1, ..ConvShape::table1(64, 48, 13, 3, 3, 1) }),
        ("partial", ConvShape::table1(16, 20, 9, 3, 5, 1)),
        ("odd", ConvShape { pad: 2, ..ConvShape::table1(40, 24, 11, 5, 7, 1) }),
        ("strided", ConvShape::table1(32, 32, 23, 5, 3, 2)),
    ]
}

fn pool_shapes() -> Vec<(&'static str, PoolShape)> {
    vec![
        ("overlapped", PoolShape::table1(128, 27, 3, 64, 2)),
        ("disjoint", PoolShape::table1(64, 24, 2, 16, 2)),
        ("partial-ceil", PoolShape::table1(20, 13, 3, 7, 2).with_ceil_mode(true)),
        ("unaligned", PoolShape::table1(96, 11, 3, 5, 1)),
    ]
}

/// Every kernel under test, labelled by family and shape.
fn kernels() -> Vec<(String, Box<dyn KernelSpec + Send>)> {
    let mut out: Vec<(String, Box<dyn KernelSpec + Send>)> = Vec::new();
    for (tag, s) in conv_shapes() {
        out.push((format!("direct-chwn/{tag}"), Box::new(DirectConvChwn::new(s))));
        for (i, k) in conv_backward_nchw(&s).into_iter().enumerate() {
            out.push((format!("backward-nchw/{tag}/{i}"), k));
        }
        for (i, k) in conv_backward_chwn(&s).into_iter().enumerate() {
            out.push((format!("backward-chwn/{tag}/{i}"), k));
        }
        if let Ok(fft) = FftConvNchw::new(s, FftConvMode::Full) {
            for (i, k) in fft.kernels().into_iter().enumerate() {
                out.push((format!("fft-full/{tag}/{i}"), k));
            }
        }
        if let Ok(fft) = FftConvNchw::new(s, FftConvMode::Tiled) {
            for (i, k) in fft.kernels().into_iter().enumerate() {
                out.push((format!("fft-tiled/{tag}/{i}"), k));
            }
        }
    }
    for (tag, s) in [
        ("aligned", ConvShape { pad: 1, ..ConvShape::table1(64, 64, 14, 3, 32, 1) }),
        ("partial", ConvShape::table1(8, 12, 10, 3, 5, 1)),
    ] {
        let w = WinogradConvNchw::new(s).expect("3x3 stride-1 shape");
        for (i, k) in w.kernels().into_iter().enumerate() {
            out.push((format!("winograd/{tag}/{i}"), k));
        }
    }
    // sgemm on its own: full tiles, edge tiles in both dimensions, K below
    // one k-step (A-tile warps span several rows) and K off the k-step.
    for (m, k, n) in [(256, 128, 512), (100, 64, 130), (64, 9, 500), (70, 37, 33), (5, 3, 7)] {
        let g = GemmKernel::with_fresh_buffers(m, k, n, GemmConfig::default());
        out.push((format!("sgemm/{m}x{k}x{n}"), Box::new(g)));
    }
    out.push(("fc".to_string(), Box::new(fc_kernel(100, 1000, 10))));
    for (tag, s) in pool_shapes() {
        out.push((format!("pool-chwn/{tag}"), Box::new(PoolChwn::new(s))));
        out.push((format!("pool-chwn-2x2/{tag}"), Box::new(PoolChwn::coarsened(s, 2, 2))));
        out.push((format!("pool-chwn-3x1/{tag}"), Box::new(PoolChwn::coarsened(s, 3, 1))));
        out.push((format!("pool-caffe/{tag}"), Box::new(PoolNchwCaffe::new(s))));
        out.push((format!("pool-cudnn/{tag}"), Box::new(PoolNchwCudnn::new(s))));
        out.push((format!("pool-bwd-chwn/{tag}"), pool_backward_spec(&s, Layout::CHWN)));
        out.push((format!("pool-bwd-nchw/{tag}"), pool_backward_spec(&s, Layout::NCHW)));
    }
    let transform_shapes = [
        ("aligned", Shape::new(128, 64, 12, 12)),
        ("unaligned", Shape::new(96, 3, 13, 13)),
        ("partial", Shape::new(20, 5, 7, 9)),
    ];
    for (tag, s) in transform_shapes {
        for (from, to) in [(Layout::CHWN, Layout::NCHW), (Layout::NCHW, Layout::CHWN)] {
            for imp in [TransformImpl::Naive, TransformImpl::Opt1, TransformImpl::Opt2] {
                if imp == TransformImpl::Opt2 && s.extent(memcnn_tensor::Dim::N) < 64 {
                    continue;
                }
                out.push((
                    format!("transform-{imp:?}/{from}-{to}/{tag}"),
                    Box::new(TransformKernel::new(s, from, to, imp)),
                ));
            }
        }
    }
    for (tag, s) in [
        ("imagenet", SoftmaxShape::new(128, 1000)),
        ("cifar", SoftmaxShape::new(100, 10)),
        ("odd", SoftmaxShape::new(33, 7)),
    ] {
        for (i, k) in five_kernel_pipeline(s).into_iter().enumerate() {
            out.push((format!("softmax-5k/{tag}/{i}"), k));
        }
        for (i, k) in cudnn_pipeline(s).into_iter().enumerate() {
            out.push((format!("softmax-cudnn/{tag}/{i}"), k));
        }
        out.push((format!("softmax-serial/{tag}"), Box::new(SoftmaxFusedSerial::new(s))));
        out.push((format!("softmax-fused/{tag}"), Box::new(SoftmaxFused::new(s))));
    }
    for elems in [1u64 << 16, 1000 + 7, 20] {
        out.push((format!("relu/{elems}"), Box::new(ElementwiseKernel::new("relu", elems, 1))));
        out.push((format!("lrn/{elems}"), Box::new(LrnKernel::new(elems, 5))));
        out.push((format!("relu-bwd/{elems}"), Box::new(elementwise_backward("relu", elems, 1))));
    }
    out
}

fn render() -> String {
    let d = DeviceConfig::titan_black();
    let opts = SimOptions { use_cache: false, ..SimOptions::default() };
    let mut text = String::new();
    let mut line = |label: &str, k: &dyn KernelSpec| {
        let r = simulate(&d, k, &opts).unwrap_or_else(|e| panic!("{label}: {e}"));
        text.push_str(&format!(
            "{label} | {} | time={:016x} dram={:016x} txn={:016x} req={:016x} l2={:016x} flops={:016x}\n",
            r.name,
            r.timing.time.to_bits(),
            r.dram_bytes.to_bits(),
            r.transaction_bytes.to_bits(),
            r.requested_bytes.to_bits(),
            r.l2_hit_rate.to_bits(),
            r.flops.to_bits(),
        ));
    };
    for (label, k) in kernels() {
        line(&label, k.as_ref());
    }
    // The MM pipeline's own kernel instances (im2col, then sgemm with the
    // pipeline's extra footprint).
    for (tag, s) in conv_shapes() {
        let mm = MmConvNchw::new(s);
        for (i, k) in mm.kernels().into_iter().enumerate() {
            line(&format!("mm/{tag}/{i}"), k);
        }
    }
    text
}

#[test]
fn kernel_reports_match_the_golden_fixture_bit_for_bit() {
    let got = render();
    if got != FIXTURE {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("kernel_reports.txt");
        std::fs::write(&path, &got).expect("write the fresh rendering");
        let first = got
            .lines()
            .zip(FIXTURE.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("\n  got:    {a}\n  golden: {b}"))
            .unwrap_or_else(|| {
                format!(
                    "\n  line counts differ: {} vs {}",
                    got.lines().count(),
                    FIXTURE.lines().count()
                )
            });
        panic!(
            "kernel reports differ from the golden fixture{first}\nfresh rendering: {}",
            path.display()
        );
    }
}
