//! Stage-level benchmarks of the routing flow on dense1.

use criterion::{criterion_group, criterion_main, Criterion};
use info_model::Layout;
use info_router::{assign, concurrent, preprocess, sequential, FlowCtx, InfoRouter, RouterConfig};
use info_tile::{astar, RoutingSpace, SearchOptions, SearchStats};

fn bench_stages(c: &mut Criterion) {
    let pkg = info_gen::dense(1);
    let cfg = RouterConfig::default();
    let ctx = FlowCtx::default();

    let mut group = c.benchmark_group("stages_dense1");
    group.sample_size(10);

    group.bench_function("preprocess", |b| {
        b.iter(|| preprocess::preprocess(&pkg, &cfg, &ctx));
    });

    let pre = preprocess::preprocess(&pkg, &cfg, &ctx).expect("preprocess dense1");
    group.bench_function("assign_layers", |b| {
        b.iter(|| assign::assign_layers(&pre, &cfg, pkg.wire_layer_count(), &ctx));
    });

    let asg =
        assign::assign_layers(&pre, &cfg, pkg.wire_layer_count(), &ctx).expect("assign dense1");
    group.bench_function("concurrent_route", |b| {
        b.iter(|| {
            let mut layout = Layout::new(&pkg);
            concurrent::route_concurrent(&pkg, &mut layout, &pre, &asg, &cfg, &ctx)
        });
    });

    let layout = Layout::new(&pkg);
    group.bench_function("space_build", |b| {
        b.iter(|| RoutingSpace::build(&pkg, &layout, sequential::space_config(&pkg, &cfg)));
    });

    let space = RoutingSpace::build(&pkg, &layout, sequential::space_config(&pkg, &cfg));
    let net = pkg.nets()[0];
    let src = (pkg.pad_layer(net.a), pkg.pad(net.a).center);
    let dst = (pkg.pad_layer(net.b), pkg.pad(net.b).center);
    group.bench_function("astar_one_net", |b| {
        b.iter(|| {
            let (opts, mut stats) = (SearchOptions::default(), SearchStats::default());
            astar::route_cancellable(&space, net.id, src, dst, opts, None, &mut stats)
                .expect("open space")
        });
    });
    group.finish();

    let mut full = c.benchmark_group("full_flow");
    full.sample_size(10);
    full.bench_function("dense1_ours", |b| {
        b.iter(|| InfoRouter::new(RouterConfig::default()).route(&pkg));
    });
    full.finish();
}

criterion_group!(benches, bench_stages);
criterion_main!(benches);
