"""Service side of the loopback workloads: one ProxyService in its own process.

Run by ``loopback.ServiceChild``; not meant to be started by hand.  The
child binds a free block of relay ports on 127.0.0.1, starts the service's
loop thread and prints one JSON line with its SIP port and relay port
range.  It then answers line commands on stdin, one JSON line each:

    stats   pool occupancy and live sessions, and in traced runs the calls and thread CPU of the service's
            outermost spans so far
    stop    stop the service, write the span file (traced runs) and reply
            with the final stats plus the per-layer figures

End of stdin counts as ``stop``, so the child never outlives its parent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HOST = "127.0.0.1"
FIRST_RELAY_PORT = 20000
LAST_RELAY_PORT = 32000  # stays below the kernel's ephemeral port range


def bind_service(pool_pairs: int):
    """A ProxyService on the first free block of ``2 * pool_pairs`` ports."""
    from sipnat.proxy import ProxyConfig
    from sipnat.service import ProxyService

    span = 2 * pool_pairs
    for lo in range(FIRST_RELAY_PORT, LAST_RELAY_PORT - span, span):
        config = ProxyConfig(public_ip=HOST, sip_tcp_port=0, media_port_range=(lo, lo + span - 1))
        try:
            return ProxyService(config, host=HOST)
        except OSError:
            continue
    raise RuntimeError(f"no free block of {span} UDP ports in {FIRST_RELAY_PORT}-{LAST_RELAY_PORT}")


def service_stats(service) -> dict:
    proxy = service.proxy
    lo, hi = proxy.config.media_port_range
    return {
        "pool_pairs": len(range(lo if lo % 2 == 0 else lo + 1, hi, 2)),
        "pool_free_pairs": len(proxy.media.pool.free_pairs()),
        "sessions": len(proxy.media.sessions),
    }


ROOT_SPANS = ("proxy.handle_message", "sip_message.framer_feed", "proxy.handle_media")


def span_stats(tracer) -> dict:
    """{span name: [calls, thread CPU ms]} for the service's outermost spans."""
    return {name: [tracer.calls(name), tracer.root_cpu_ns[name] / 1e6] for name in ROOT_SPANS}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--pool-pairs", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    tracer = None
    if args.trace:
        from tracer import Tracer, instrument

        tracer = Tracer(key_totals_for=("proxy.handle_message",))
        instrument(tracer)

    service = bind_service(args.pool_pairs)
    # A hook of our own, so that a traced run counts error responses too.
    service.proxy.set_event_hook(lambda event, detail: None)
    service.start()
    print(json.dumps({"sip_port": service.sip_port, "media_range": list(service.config.media_port_range)}), flush=True)

    for line in sys.stdin:
        command = line.strip()
        if command == "stats":
            stats = service_stats(service)
            if tracer is not None:
                stats["spans"] = span_stats(tracer)
            print(json.dumps(stats), flush=True)
        elif command == "stop":
            break
    service.stop()

    reply = {"stats": service_stats(service)}
    if tracer is not None:
        from tracer import layer_metrics

        tracer.restore()
        reply["layers"] = layer_metrics(
            tracer,
            packets=tracer.calls("proxy.handle_media"),
            messages=tracer.calls("proxy.handle_message"),
        )
        reply["per_call"] = {
            str(key): [total / 1e6, own / 1e6] for key, (total, own) in tracer.key_totals.items()
        }
        if args.spans:
            tracer.write(Path(args.spans))
    print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
