//! The generated world speaks the real datasets' byte formats: every
//! dataset must survive a serialise → parse round trip and yield the same
//! analysis results afterwards.

use lacnet::bgp::{serial1, AsGraph, PfxToAs, TopologyArchive};
use lacnet::crisis::{World, WorldConfig};
use lacnet::peeringdb::Snapshot;
use lacnet::registry::delegation::DelegationFile;
use lacnet::telegeo::CableMap;
use lacnet::types::{country, Asn, Date, MonthStamp};
use std::sync::OnceLock;

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::generate(WorldConfig::test()))
}

#[test]
fn serial1_archive_roundtrip_preserves_analysis() {
    let w = world();
    let mut reparsed = TopologyArchive::new();
    for (m, graph) in w.topology.iter().take(60) {
        let text = serial1::to_text(&graph.edges(), "roundtrip test");
        let back = AsGraph::from_edges(serial1::parse(&text).expect("own output parses"));
        assert_eq!(back.edge_count(), graph.edge_count(), "{m}");
        assert_eq!(
            back.upstream_count(Asn(8048)),
            graph.upstream_count(Asn(8048)),
            "{m}"
        );
        reparsed.insert(m, back);
    }
    assert_eq!(reparsed.len(), 60);
}

#[test]
fn pfx2as_roundtrip_preserves_address_space() {
    let w = world();
    for m in [
        MonthStamp::new(2012, 6),
        MonthStamp::new(2018, 6),
        MonthStamp::new(2023, 9),
    ] {
        let table = w.pfx2as_at(m);
        let back = PfxToAs::parse(&table.to_text()).expect("own output parses");
        assert_eq!(back.len(), table.len(), "{m}");
        let asns = [Asn(8048), Asn(6306), Asn(21826)];
        assert_eq!(
            back.address_space_by_origin(&asns),
            table.address_space_by_origin(&asns),
            "{m}"
        );
    }
}

#[test]
fn delegation_file_roundtrip() {
    let w = world();
    let f = w.addressing.delegation_file(Date::ymd(2024, 1, 1));
    let text = f.to_text(Date::ymd(2024, 1, 1));
    let back = DelegationFile::parse(&text).expect("own output parses");
    assert_eq!(back.records, f.records);
}

#[test]
fn peeringdb_snapshots_roundtrip_and_validate() {
    let w = world();
    for (m, snap) in w.peeringdb.iter().step_by(12) {
        snap.validate().unwrap_or_else(|e| panic!("{m}: {e}"));
        let back = Snapshot::from_json(&snap.to_json()).expect("own JSON parses");
        assert_eq!(&back, snap, "{m}");
    }
}

#[test]
fn cable_map_roundtrip() {
    let w = world();
    let back = CableMap::from_json(&w.cables.to_json()).expect("own JSON parses");
    assert_eq!(back.len(), w.cables.len());
    assert_eq!(
        back.serving(country::VE, Date::ymd(2024, 1, 1)).len(),
        w.cables.serving(country::VE, Date::ymd(2024, 1, 1)).len()
    );
}

#[test]
fn chaos_strings_decode_back_to_their_instances() {
    let w = world();
    for inst in w.dns.roots.all() {
        let txt = lacnet::atlas::chaos::encode(inst);
        let decoded = lacnet::atlas::chaos::decode(inst.letter, &txt)
            .unwrap_or_else(|e| panic!("{txt}: {e}"));
        assert_eq!(decoded.site, inst.site, "{txt}");
        assert_eq!(decoded.country(), Some(inst.country), "{txt}");
    }
}

#[test]
fn ndt_rows_roundtrip_through_archive_format() {
    use lacnet::crisis::bandwidth;
    use lacnet::types::rng::Rng;
    let w = world();
    let mut rng = Rng::seeded(1).fork("roundtrip");
    let tests = bandwidth::generate_month(
        &w.operators,
        country::VE,
        MonthStamp::new(2020, 6),
        1.0,
        &mut rng,
    );
    assert!(!tests.is_empty());
    let run = lacnet::mlab::BlockRun::encode(&tests);
    let container = lacnet::mlab::columnar::assemble([&run]);
    let back = lacnet::mlab::columnar::decode(&container).expect("own container decodes");
    // Bit-exact: every float compared by its bits.
    let bits = |t: &lacnet::mlab::NdtTest| {
        (
            t.date,
            t.country,
            t.asn,
            [t.download_mbps, t.upload_mbps, t.min_rtt_ms, t.loss_rate].map(f64::to_bits),
        )
    };
    assert_eq!(
        back.iter().map(|t| bits(&t)).collect::<Vec<_>>(),
        tests.iter().map(bits).collect::<Vec<_>>()
    );
}

#[test]
fn cert_scans_roundtrip() {
    let w = world();
    for scan in &w.cert_scans {
        let back = lacnet::offnets::CertScan::from_json(&scan.to_json()).expect("own JSON parses");
        assert_eq!(&back, scan);
    }
}

#[test]
fn top_sites_roundtrip() {
    let w = world();
    for list in &w.top_sites {
        let back =
            lacnet::webmeas::CountryTopSites::from_json(&list.to_json()).expect("own JSON parses");
        assert_eq!(&back, list);
    }
}
