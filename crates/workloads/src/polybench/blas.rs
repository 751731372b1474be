//! BLAS-style PolyBench kernels.

use easydram_cpu::CpuApi;

use crate::polybench::poly_kernel;
use crate::util::{Mat, Vect};
use crate::PolySize;

const ALPHA: f64 = 1.5;
const BETA: f64 = 1.2;

fn cubic_n(size: PolySize) -> u64 {
    match size {
        PolySize::Mini => 20,
        PolySize::Small => 48,
    }
}

fn quadratic_n(size: PolySize) -> u64 {
    match size {
        PolySize::Mini => 64,
        PolySize::Small => 384,
    }
}

fn gemm_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let n = cubic_n(size);
    let a = Mat::alloc(cpu, n, n);
    let b = Mat::alloc(cpu, n, n);
    let c = Mat::alloc(cpu, n, n);
    a.init_poly(cpu, 3, 13);
    b.init_poly(cpu, 5, 17);
    c.init_poly(cpu, 7, 19);
    for i in 0..n {
        for j in 0..n {
            let mut acc = c.get(cpu, i, j) * BETA;
            cpu.stream_begin();
            for k in 0..n {
                acc += ALPHA * a.get(cpu, i, k) * b.get(cpu, k, j);
                cpu.compute(3);
            }
            cpu.stream_end();
            c.set(cpu, i, j, acc);
            cpu.compute(2);
        }
    }
    c.checksum(cpu)
}

fn two_mm_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let n = cubic_n(size);
    let a = Mat::alloc(cpu, n, n);
    let b = Mat::alloc(cpu, n, n);
    let c = Mat::alloc(cpu, n, n);
    let d = Mat::alloc(cpu, n, n);
    let tmp = Mat::alloc(cpu, n, n);
    a.init_poly(cpu, 3, 13);
    b.init_poly(cpu, 5, 17);
    c.init_poly(cpu, 7, 19);
    d.init_poly(cpu, 11, 23);
    // tmp = alpha * A * B
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            cpu.stream_begin();
            for k in 0..n {
                acc += ALPHA * a.get(cpu, i, k) * b.get(cpu, k, j);
                cpu.compute(3);
            }
            cpu.stream_end();
            tmp.set(cpu, i, j, acc);
        }
    }
    // D = tmp * C + beta * D
    for i in 0..n {
        for j in 0..n {
            let mut acc = d.get(cpu, i, j) * BETA;
            cpu.stream_begin();
            for k in 0..n {
                acc += tmp.get(cpu, i, k) * c.get(cpu, k, j);
                cpu.compute(3);
            }
            cpu.stream_end();
            d.set(cpu, i, j, acc);
        }
    }
    d.checksum(cpu)
}

fn three_mm_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let n = cubic_n(size);
    let a = Mat::alloc(cpu, n, n);
    let b = Mat::alloc(cpu, n, n);
    let c = Mat::alloc(cpu, n, n);
    let d = Mat::alloc(cpu, n, n);
    let e = Mat::alloc(cpu, n, n);
    let f = Mat::alloc(cpu, n, n);
    let g = Mat::alloc(cpu, n, n);
    a.init_poly(cpu, 3, 13);
    b.init_poly(cpu, 5, 17);
    c.init_poly(cpu, 7, 19);
    d.init_poly(cpu, 11, 23);
    let mm = |cpu: &mut dyn CpuApi, x: &Mat, y: &Mat, out: &Mat| {
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                cpu.stream_begin();
                for k in 0..n {
                    acc += x.get(cpu, i, k) * y.get(cpu, k, j);
                    cpu.compute(3);
                }
                cpu.stream_end();
                out.set(cpu, i, j, acc);
            }
        }
    };
    mm(cpu, &a, &b, &e); // E = A*B
    mm(cpu, &c, &d, &f); // F = C*D
    mm(cpu, &e, &f, &g); // G = E*F
    g.checksum(cpu)
}

fn gemver_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let n = quadratic_n(size);
    let a = Mat::alloc(cpu, n, n);
    let u1 = Vect::alloc(cpu, n);
    let v1 = Vect::alloc(cpu, n);
    let u2 = Vect::alloc(cpu, n);
    let v2 = Vect::alloc(cpu, n);
    let w = Vect::alloc(cpu, n);
    let x = Vect::alloc(cpu, n);
    let y = Vect::alloc(cpu, n);
    let z = Vect::alloc(cpu, n);
    a.init_poly(cpu, 3, 13);
    u1.init_poly(cpu, 7);
    v1.init_poly(cpu, 11);
    u2.init_poly(cpu, 13);
    v2.init_poly(cpu, 17);
    y.init_poly(cpu, 19);
    z.init_poly(cpu, 23);
    for i in 0..n {
        w.set(cpu, i, 0.0);
        x.set(cpu, i, 0.0);
    }
    // A = A + u1*v1' + u2*v2'
    for i in 0..n {
        let u1i = u1.get(cpu, i);
        let u2i = u2.get(cpu, i);
        cpu.stream_begin();
        for j in 0..n {
            let v = a.get(cpu, i, j) + u1i * v1.get(cpu, j) + u2i * v2.get(cpu, j);
            a.set(cpu, i, j, v);
            cpu.compute(5);
        }
        cpu.stream_end();
    }
    // x = beta * A' * y + z
    for i in 0..n {
        let mut acc = x.get(cpu, i);
        cpu.stream_begin();
        for j in 0..n {
            acc += BETA * a.get(cpu, j, i) * y.get(cpu, j);
            cpu.compute(3);
        }
        cpu.stream_end();
        let zi = z.get(cpu, i);
        x.set(cpu, i, acc + zi);
    }
    // w = alpha * A * x
    for i in 0..n {
        let mut acc = w.get(cpu, i);
        cpu.stream_begin();
        for j in 0..n {
            acc += ALPHA * a.get(cpu, i, j) * x.get(cpu, j);
            cpu.compute(3);
        }
        cpu.stream_end();
        w.set(cpu, i, acc);
    }
    w.checksum(cpu)
}

fn gesummv_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let n = quadratic_n(size);
    let a = Mat::alloc(cpu, n, n);
    let b = Mat::alloc(cpu, n, n);
    let x = Vect::alloc(cpu, n);
    let y = Vect::alloc(cpu, n);
    a.init_poly(cpu, 3, 13);
    b.init_poly(cpu, 5, 17);
    x.init_poly(cpu, 7);
    for i in 0..n {
        let mut t = 0.0;
        let mut yv = 0.0;
        cpu.stream_begin();
        for j in 0..n {
            let xj = x.get(cpu, j);
            t += a.get(cpu, i, j) * xj;
            yv += b.get(cpu, i, j) * xj;
            cpu.compute(5);
        }
        cpu.stream_end();
        y.set(cpu, i, ALPHA * t + BETA * yv);
        cpu.compute(3);
    }
    y.checksum(cpu)
}

fn symm_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let n = cubic_n(size);
    let a = Mat::alloc(cpu, n, n); // symmetric (lower stored)
    let b = Mat::alloc(cpu, n, n);
    let c = Mat::alloc(cpu, n, n);
    a.init_poly(cpu, 3, 13);
    b.init_poly(cpu, 5, 17);
    c.init_poly(cpu, 7, 19);
    for i in 0..n {
        for j in 0..n {
            let bij = b.get(cpu, i, j);
            let mut temp2 = 0.0;
            cpu.stream_begin();
            for k in 0..i {
                let v = c.get(cpu, k, j) + ALPHA * bij * a.get(cpu, i, k);
                c.set(cpu, k, j, v);
                temp2 += b.get(cpu, k, j) * a.get(cpu, i, k);
                cpu.compute(6);
            }
            cpu.stream_end();
            let v = BETA * c.get(cpu, i, j) + ALPHA * bij * a.get(cpu, i, i) + ALPHA * temp2;
            c.set(cpu, i, j, v);
            cpu.compute(5);
        }
    }
    c.checksum(cpu)
}

fn syrk_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let n = cubic_n(size);
    let a = Mat::alloc(cpu, n, n);
    let c = Mat::alloc(cpu, n, n);
    a.init_poly(cpu, 3, 13);
    c.init_poly(cpu, 7, 19);
    for i in 0..n {
        for j in 0..=i {
            let v = c.get(cpu, i, j) * BETA;
            c.set(cpu, i, j, v);
            cpu.compute(2);
        }
        for k in 0..n {
            let aik = a.get(cpu, i, k);
            cpu.stream_begin();
            for j in 0..=i {
                let v = c.get(cpu, i, j) + ALPHA * aik * a.get(cpu, j, k);
                c.set(cpu, i, j, v);
                cpu.compute(4);
            }
            cpu.stream_end();
        }
    }
    c.checksum(cpu)
}

fn syr2k_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let n = cubic_n(size);
    let a = Mat::alloc(cpu, n, n);
    let b = Mat::alloc(cpu, n, n);
    let c = Mat::alloc(cpu, n, n);
    a.init_poly(cpu, 3, 13);
    b.init_poly(cpu, 5, 17);
    c.init_poly(cpu, 7, 19);
    for i in 0..n {
        for j in 0..=i {
            let v = c.get(cpu, i, j) * BETA;
            c.set(cpu, i, j, v);
            cpu.compute(2);
        }
        for k in 0..n {
            let aik = a.get(cpu, i, k);
            let bik = b.get(cpu, i, k);
            cpu.stream_begin();
            for j in 0..=i {
                let v = c.get(cpu, i, j)
                    + a.get(cpu, j, k) * ALPHA * bik
                    + b.get(cpu, j, k) * ALPHA * aik;
                c.set(cpu, i, j, v);
                cpu.compute(7);
            }
            cpu.stream_end();
        }
    }
    c.checksum(cpu)
}

fn trmm_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let n = cubic_n(size);
    let a = Mat::alloc(cpu, n, n); // unit lower triangular
    let b = Mat::alloc(cpu, n, n);
    a.init_poly(cpu, 3, 13);
    b.init_poly(cpu, 5, 17);
    for i in 0..n {
        for j in 0..n {
            let mut acc = b.get(cpu, i, j);
            cpu.stream_begin();
            for k in i + 1..n {
                acc += a.get(cpu, k, i) * b.get(cpu, k, j);
                cpu.compute(3);
            }
            cpu.stream_end();
            b.set(cpu, i, j, ALPHA * acc);
            cpu.compute(2);
        }
    }
    b.checksum(cpu)
}

fn atax_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let n = quadratic_n(size);
    let a = Mat::alloc(cpu, n, n);
    let x = Vect::alloc(cpu, n);
    let y = Vect::alloc(cpu, n);
    let tmp = Vect::alloc(cpu, n);
    a.init_poly(cpu, 3, 13);
    x.init_poly(cpu, 7);
    for i in 0..n {
        y.set(cpu, i, 0.0);
    }
    for i in 0..n {
        let mut acc = 0.0;
        cpu.stream_begin();
        for j in 0..n {
            acc += a.get(cpu, i, j) * x.get(cpu, j);
            cpu.compute(3);
        }
        cpu.stream_end();
        tmp.set(cpu, i, acc);
        let t = acc;
        cpu.stream_begin();
        for j in 0..n {
            let v = y.get(cpu, j) + a.get(cpu, i, j) * t;
            y.set(cpu, j, v);
            cpu.compute(4);
        }
        cpu.stream_end();
    }
    y.checksum(cpu)
}

fn bicg_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let n = quadratic_n(size);
    let a = Mat::alloc(cpu, n, n);
    let s = Vect::alloc(cpu, n);
    let q = Vect::alloc(cpu, n);
    let p = Vect::alloc(cpu, n);
    let r = Vect::alloc(cpu, n);
    a.init_poly(cpu, 3, 13);
    p.init_poly(cpu, 7);
    r.init_poly(cpu, 11);
    for i in 0..n {
        s.set(cpu, i, 0.0);
    }
    for i in 0..n {
        q.set(cpu, i, 0.0);
        let ri = r.get(cpu, i);
        let mut qi = 0.0;
        cpu.stream_begin();
        for j in 0..n {
            let aij = a.get(cpu, i, j);
            let v = s.get(cpu, j) + ri * aij;
            s.set(cpu, j, v);
            qi += aij * p.get(cpu, j);
            cpu.compute(6);
        }
        cpu.stream_end();
        q.set(cpu, i, qi);
    }
    s.checksum(cpu) + q.checksum(cpu)
}

fn mvt_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let n = quadratic_n(size);
    let a = Mat::alloc(cpu, n, n);
    let x1 = Vect::alloc(cpu, n);
    let x2 = Vect::alloc(cpu, n);
    let y1 = Vect::alloc(cpu, n);
    let y2 = Vect::alloc(cpu, n);
    a.init_poly(cpu, 3, 13);
    x1.init_poly(cpu, 7);
    x2.init_poly(cpu, 11);
    y1.init_poly(cpu, 13);
    y2.init_poly(cpu, 17);
    for i in 0..n {
        let mut acc = x1.get(cpu, i);
        cpu.stream_begin();
        for j in 0..n {
            acc += a.get(cpu, i, j) * y1.get(cpu, j);
            cpu.compute(3);
        }
        cpu.stream_end();
        x1.set(cpu, i, acc);
    }
    for i in 0..n {
        let mut acc = x2.get(cpu, i);
        cpu.stream_begin();
        for j in 0..n {
            acc += a.get(cpu, j, i) * y2.get(cpu, j);
            cpu.compute(3);
        }
        cpu.stream_end();
        x2.set(cpu, i, acc);
    }
    x1.checksum(cpu) + x2.checksum(cpu)
}

fn doitgen_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let (nr, nq, np) = match size {
        PolySize::Mini => (10, 10, 10),
        PolySize::Small => (20, 20, 20),
    };
    // A is nr x nq x np, flattened as a matrix of nr*nq rows.
    let a = Mat::alloc(cpu, nr * nq, np);
    let c4 = Mat::alloc(cpu, np, np);
    let sum = Vect::alloc(cpu, np);
    a.init_poly(cpu, 3, 13);
    c4.init_poly(cpu, 5, 17);
    for r in 0..nr {
        for q in 0..nq {
            let row = r * nq + q;
            for p in 0..np {
                let mut acc = 0.0;
                cpu.stream_begin();
                for s in 0..np {
                    acc += a.get(cpu, row, s) * c4.get(cpu, s, p);
                    cpu.compute(3);
                }
                cpu.stream_end();
                sum.set(cpu, p, acc);
            }
            cpu.stream_begin();
            for p in 0..np {
                let v = sum.get(cpu, p);
                a.set(cpu, row, p, v);
                cpu.compute(2);
            }
            cpu.stream_end();
        }
    }
    a.checksum(cpu)
}

poly_kernel!(
    /// `gemm`: C = alpha·A·B + beta·C.
    Gemm,
    "gemm",
    gemm_body
);
poly_kernel!(
    /// `2mm`: D = alpha·A·B·C + beta·D.
    Two2mm,
    "2mm",
    two_mm_body
);
poly_kernel!(
    /// `3mm`: G = (A·B)·(C·D).
    Three3mm,
    "3mm",
    three_mm_body
);
poly_kernel!(
    /// `gemver`: vector multiplication and matrix addition.
    Gemver,
    "gemver",
    gemver_body
);
poly_kernel!(
    /// `gesummv`: scalar, vector and matrix multiplication.
    Gesummv,
    "gesummv",
    gesummv_body
);
poly_kernel!(
    /// `symm`: symmetric matrix multiplication.
    Symm,
    "symm",
    symm_body
);
poly_kernel!(
    /// `syrk`: symmetric rank-k update.
    Syrk,
    "syrk",
    syrk_body
);
poly_kernel!(
    /// `syr2k`: symmetric rank-2k update.
    Syr2k,
    "syr2k",
    syr2k_body
);
poly_kernel!(
    /// `trmm`: triangular matrix multiplication.
    Trmm,
    "trmm",
    trmm_body
);
poly_kernel!(
    /// `atax`: Aᵀ·A·x.
    Atax,
    "atax",
    atax_body
);
poly_kernel!(
    /// `bicg`: BiCG sub-kernel of BiCGStab.
    Bicg,
    "bicg",
    bicg_body
);
poly_kernel!(
    /// `mvt`: matrix-vector product and transpose.
    Mvt,
    "mvt",
    mvt_body
);
poly_kernel!(
    /// `doitgen`: multi-resolution analysis kernel.
    Doitgen,
    "doitgen",
    doitgen_body
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use easydram_cpu::{CoreConfig, CoreModel, FixedLatencyBackend};

    fn run(w: &mut dyn Workload) -> (u64, u64) {
        let mut cpu = CoreModel::new(CoreConfig::cortex_a57(), FixedLatencyBackend::new(50));
        w.run(&mut cpu);
        (cpu.now_cycles(), cpu.instructions_retired())
    }

    #[test]
    fn gemm_checksum_is_finite_and_nonzero() {
        let mut g = Gemm::new(PolySize::Mini);
        run(&mut g);
        assert!(g.checksum().is_finite());
        assert!(g.checksum().abs() > 1e-9);
    }

    #[test]
    fn small_is_bigger_than_mini() {
        let mut a = Gemm::new(PolySize::Mini);
        let (_, i1) = run(&mut a);
        let mut b = Gemm::new(PolySize::Small);
        let (_, i2) = run(&mut b);
        assert!(i2 > i1 * 5);
    }

    #[test]
    fn memory_bound_kernels_touch_memory() {
        let mut cpu = CoreModel::new(CoreConfig::cortex_a57(), FixedLatencyBackend::new(50));
        let mut w = Gemver::new(PolySize::Small);
        w.run(&mut cpu);
        assert!(
            cpu.stats().mem_reads > 1000,
            "gemver(small) must stream past the caches"
        );
    }

    #[test]
    #[expect(clippy::needless_range_loop, reason = "index loops mirror the math")]
    fn gemm_matches_reference_math() {
        // Cross-check the simulated kernel against host arithmetic.
        let n = 20usize;
        let f = |scale: u64, modulus: u64, i: usize, j: usize| {
            ((i as u64 * scale + j as u64) % modulus) as f64 / modulus as f64
        };
        let mut c_ref = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = f(7, 19, i, j) * BETA;
                for k in 0..n {
                    acc += ALPHA * f(3, 13, i, k) * f(5, 17, k, j);
                }
                c_ref[i][j] = acc;
            }
        }
        let expect: f64 = c_ref.iter().flatten().sum();
        let mut g = Gemm::new(PolySize::Mini);
        run(&mut g);
        assert!(
            (g.checksum() - expect).abs() < 1e-6,
            "{} vs {expect}",
            g.checksum()
        );
    }
}
