//! Linear-algebra solver kernels.

use easydram_cpu::CpuApi;

use crate::polybench::poly_kernel;
use crate::util::{Mat, Vect};
use crate::PolySize;

fn cubic_n(size: PolySize) -> u64 {
    match size {
        PolySize::Mini => 20,
        PolySize::Small => 48,
    }
}

/// Initializes a symmetric positive-definite matrix (diagonally dominant).
fn init_spd(cpu: &mut dyn CpuApi, a: &Mat) {
    let n = a.rows;
    cpu.stream_begin();
    for i in 0..n {
        for j in 0..n {
            let v = if i == j {
                n as f64 + 1.0
            } else {
                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                ((lo * 3 + hi) % 11) as f64 / 22.0
            };
            a.set(cpu, i, j, v);
        }
    }
    cpu.stream_end();
    cpu.fence();
}

fn cholesky_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let n = cubic_n(size);
    let a = Mat::alloc(cpu, n, n);
    init_spd(cpu, &a);
    for i in 0..n {
        for j in 0..i {
            let mut v = a.get(cpu, i, j);
            cpu.stream_begin();
            for k in 0..j {
                v -= a.get(cpu, i, k) * a.get(cpu, j, k);
                cpu.compute(3);
            }
            cpu.stream_end();
            let v = v / a.get(cpu, j, j);
            a.set(cpu, i, j, v);
            cpu.compute(12); // division
        }
        let mut v = a.get(cpu, i, i);
        cpu.stream_begin();
        for k in 0..i {
            let aik = a.get(cpu, i, k);
            v -= aik * aik;
            cpu.compute(3);
        }
        cpu.stream_end();
        a.set(cpu, i, i, v.sqrt());
        cpu.compute(20); // square root
    }
    a.checksum(cpu)
}

fn durbin_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let n = match size {
        PolySize::Mini => 64,
        PolySize::Small => 256,
    };
    // Small working set by design: the paper singles out durbin as the
    // least memory-intensive workload (0.01 LLC misses per kilo cycle).
    let r = Vect::alloc(cpu, n);
    let y = Vect::alloc(cpu, n);
    let z = Vect::alloc(cpu, n);
    cpu.stream_begin();
    for i in 0..n {
        r.set(cpu, i, 0.1 + (i % 7) as f64 * 0.05);
    }
    cpu.stream_end();
    let mut alpha = -r.get(cpu, 0);
    let mut beta = 1.0;
    y.set(cpu, 0, alpha);
    for k in 1..n {
        beta *= 1.0 - alpha * alpha;
        cpu.compute(4);
        let mut sum = 0.0;
        cpu.stream_begin();
        for i in 0..k {
            sum += r.get(cpu, k - i - 1) * y.get(cpu, i);
            cpu.compute(4);
        }
        cpu.stream_end();
        alpha = -(r.get(cpu, k) + sum) / beta;
        cpu.compute(14);
        cpu.stream_begin();
        for i in 0..k {
            let v = y.get(cpu, i) + alpha * y.get(cpu, k - i - 1);
            z.set(cpu, i, v);
            cpu.compute(4);
        }
        for i in 0..k {
            let v = z.get(cpu, i);
            y.set(cpu, i, v);
            cpu.compute(2);
        }
        cpu.stream_end();
        y.set(cpu, k, alpha);
    }
    y.checksum(cpu)
}

fn gramschmidt_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let n = cubic_n(size);
    let a = Mat::alloc(cpu, n, n);
    let q = Mat::alloc(cpu, n, n);
    let r = Mat::alloc(cpu, n, n);
    // Diagonal-dominant init keeps the factorization well-conditioned.
    init_spd(cpu, &a);
    // R's strict lower triangle is never written by the kernel, but the
    // final checksum reads the whole matrix — and on a real DRAM chip,
    // unwritten rows hold power-on garbage, not zeros.
    cpu.stream_begin();
    for i in 0..n {
        for j in 0..n {
            r.set(cpu, i, j, 0.0);
        }
    }
    cpu.stream_end();
    cpu.fence();
    for k in 0..n {
        let mut nrm = 0.0;
        cpu.stream_begin();
        for i in 0..n {
            let v = a.get(cpu, i, k);
            nrm += v * v;
            cpu.compute(3);
        }
        cpu.stream_end();
        let rkk = nrm.sqrt();
        r.set(cpu, k, k, rkk);
        cpu.compute(20);
        cpu.stream_begin();
        for i in 0..n {
            let v = a.get(cpu, i, k) / rkk;
            q.set(cpu, i, k, v);
            cpu.compute(12);
        }
        cpu.stream_end();
        for j in k + 1..n {
            let mut acc = 0.0;
            cpu.stream_begin();
            for i in 0..n {
                acc += q.get(cpu, i, k) * a.get(cpu, i, j);
                cpu.compute(3);
            }
            cpu.stream_end();
            r.set(cpu, k, j, acc);
            cpu.stream_begin();
            for i in 0..n {
                let v = a.get(cpu, i, j) - q.get(cpu, i, k) * acc;
                a.set(cpu, i, j, v);
                cpu.compute(4);
            }
            cpu.stream_end();
        }
    }
    r.checksum(cpu) + q.checksum(cpu)
}

fn lu_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let n = cubic_n(size);
    let a = Mat::alloc(cpu, n, n);
    init_spd(cpu, &a);
    for i in 0..n {
        for j in 0..i {
            let mut v = a.get(cpu, i, j);
            cpu.stream_begin();
            for k in 0..j {
                v -= a.get(cpu, i, k) * a.get(cpu, k, j);
                cpu.compute(3);
            }
            cpu.stream_end();
            let v = v / a.get(cpu, j, j);
            a.set(cpu, i, j, v);
            cpu.compute(12);
        }
        for j in i..n {
            let mut v = a.get(cpu, i, j);
            cpu.stream_begin();
            for k in 0..i {
                v -= a.get(cpu, i, k) * a.get(cpu, k, j);
                cpu.compute(3);
            }
            cpu.stream_end();
            a.set(cpu, i, j, v);
        }
    }
    a.checksum(cpu)
}

fn ludcmp_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let n = cubic_n(size);
    let a = Mat::alloc(cpu, n, n);
    let b = Vect::alloc(cpu, n);
    let x = Vect::alloc(cpu, n);
    let y = Vect::alloc(cpu, n);
    init_spd(cpu, &a);
    b.init_poly(cpu, 7);
    // LU factorization (same loop nest as `lu`).
    for i in 0..n {
        for j in 0..i {
            let mut v = a.get(cpu, i, j);
            cpu.stream_begin();
            for k in 0..j {
                v -= a.get(cpu, i, k) * a.get(cpu, k, j);
                cpu.compute(3);
            }
            cpu.stream_end();
            let v = v / a.get(cpu, j, j);
            a.set(cpu, i, j, v);
            cpu.compute(12);
        }
        for j in i..n {
            let mut v = a.get(cpu, i, j);
            cpu.stream_begin();
            for k in 0..i {
                v -= a.get(cpu, i, k) * a.get(cpu, k, j);
                cpu.compute(3);
            }
            cpu.stream_end();
            a.set(cpu, i, j, v);
        }
    }
    // Forward substitution.
    for i in 0..n {
        let mut v = b.get(cpu, i);
        cpu.stream_begin();
        for j in 0..i {
            v -= a.get(cpu, i, j) * y.get(cpu, j);
            cpu.compute(3);
        }
        cpu.stream_end();
        y.set(cpu, i, v);
    }
    // Backward substitution.
    for ii in 0..n {
        let i = n - 1 - ii;
        let mut v = y.get(cpu, i);
        cpu.stream_begin();
        for j in i + 1..n {
            v -= a.get(cpu, i, j) * x.get(cpu, j);
            cpu.compute(3);
        }
        cpu.stream_end();
        let aii = a.get(cpu, i, i);
        x.set(cpu, i, v / aii);
        cpu.compute(12);
    }
    x.checksum(cpu)
}

fn trisolv_body(size: PolySize, cpu: &mut dyn CpuApi) -> f64 {
    let n = match size {
        PolySize::Mini => 64,
        PolySize::Small => 384,
    };
    let l = Mat::alloc(cpu, n, n);
    let x = Vect::alloc(cpu, n);
    let b = Vect::alloc(cpu, n);
    init_spd(cpu, &l);
    b.init_poly(cpu, 7);
    for i in 0..n {
        let mut v = b.get(cpu, i);
        cpu.stream_begin();
        for j in 0..i {
            v -= l.get(cpu, i, j) * x.get(cpu, j);
            cpu.compute(3);
        }
        cpu.stream_end();
        let lii = l.get(cpu, i, i);
        x.set(cpu, i, v / lii);
        cpu.compute(12);
    }
    x.checksum(cpu)
}

poly_kernel!(
    /// `cholesky`: Cholesky decomposition of an SPD matrix.
    Cholesky,
    "cholesky",
    cholesky_body
);
poly_kernel!(
    /// `durbin`: Toeplitz system solver (the paper's least memory-intensive
    /// workload).
    Durbin,
    "durbin",
    durbin_body
);
poly_kernel!(
    /// `gramschmidt`: QR decomposition by modified Gram-Schmidt.
    Gramschmidt,
    "gramschmidt",
    gramschmidt_body
);
poly_kernel!(
    /// `lu`: LU decomposition without pivoting.
    Lu,
    "lu",
    lu_body
);
poly_kernel!(
    /// `ludcmp`: LU decomposition followed by forward/backward substitution.
    Ludcmp,
    "ludcmp",
    ludcmp_body
);
poly_kernel!(
    /// `trisolv`: triangular solver.
    Trisolv,
    "trisolv",
    trisolv_body
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use easydram_cpu::{CoreConfig, CoreModel, FixedLatencyBackend};

    fn run(w: &mut dyn Workload) -> u64 {
        let mut cpu = CoreModel::new(CoreConfig::cortex_a57(), FixedLatencyBackend::new(50));
        w.run(&mut cpu);
        cpu.stats().mem_reads
    }

    #[test]
    fn cholesky_stays_finite() {
        let mut w = Cholesky::new(PolySize::Mini);
        run(&mut w);
        assert!(w.checksum().is_finite(), "SPD init must keep sqrt real");
    }

    #[test]
    fn durbin_is_cache_resident() {
        let mut w = Durbin::new(PolySize::Small);
        let mem_reads = run(&mut w);
        assert!(w.checksum().is_finite());
        // Working set ~6 KiB: after warmup virtually no memory traffic.
        assert!(
            mem_reads < 200,
            "durbin should stay in cache, saw {mem_reads} reads"
        );
    }

    #[test]
    fn solvers_produce_finite_checksums() {
        for name in ["gramschmidt", "lu", "ludcmp", "trisolv"] {
            let mut w = crate::polybench::by_name(name, PolySize::Mini).unwrap();
            let mut cpu = CoreModel::new(CoreConfig::cortex_a57(), FixedLatencyBackend::new(50));
            w.run(&mut cpu);
        }
    }

    #[test]
    #[expect(clippy::needless_range_loop, reason = "index loops mirror the math")]
    fn trisolv_solves_the_system() {
        // L x = b with our init; verify residual on the host.
        let n = 64usize;
        let f = |i: usize, j: usize| {
            if i == j {
                n as f64 + 1.0
            } else {
                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                ((lo * 3 + hi) % 11) as f64 / 22.0
            }
        };
        let b = |i: usize| (i % 7) as f64 / 7.0;
        let mut x = vec![0.0f64; n];
        for i in 0..n {
            let mut v = b(i);
            for j in 0..i {
                v -= f(i, j) * x[j];
            }
            x[i] = v / f(i, i);
        }
        let expect: f64 = x.iter().sum();
        let mut w = Trisolv::new(PolySize::Mini);
        let mut cpu = CoreModel::new(CoreConfig::cortex_a57(), FixedLatencyBackend::new(50));
        w.run(&mut cpu);
        assert!((w.checksum() - expect).abs() < 1e-9);
    }
}
