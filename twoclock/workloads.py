"""The three workloads, each driven through the platform's public API.

A workload is split the way the benchmark times it:

- ``inputs(seed)``: generate the seeded inputs (untimed);
- ``setup(seed, inputs)``: bring the deployment up (timed: ``setup_s``);
- ``run(state)``: the measured phase (timed: ``ops_per_host_s``), a
  generator that yields at natural pauses of the work (between rounds,
  between client sessions, every few simulated seconds) so the host
  speed can be probed there, and returns an :class:`Outcome`;
- ``check(state, outcome)``: verify the outputs (untimed, raises
  :class:`CheckFailed`);
- ``results(state, outcome)``: the simulated results the determinism
  digest covers.

Why each workload exists, and what it deliberately leaves out, is in
``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core import InferenceService, SecureTFPlatform, TrainingJob
from repro.core.inference import (
    deploy_encrypted_model,
    launch_fleet,
    service_runtime_config,
)
from repro.core.monitoring import collect_metrics
from repro.core.platform import PlatformConfig
from repro.core.training import TrainingJobConfig
from repro.cluster.rpc import SecureRpcClient
from repro.crypto import encoding
from repro.crypto.certs import Certificate
from repro.crypto.ed25519 import Ed25519PrivateKey
from repro.crypto.tls import TlsIdentity
from repro.data import synthetic_cifar10, synthetic_mnist
from repro.enclave.sgx import SgxMode
from repro.models import pretrained_lite_model
from repro.observability.metrics import flatten_metrics
from repro.runtime.net_shield import NetworkShield
from repro.runtime.scone import expected_measurement
from repro.serving.router import RouterPolicy
from repro.serving.service import ServingPlane
from repro.serving.traffic import DiurnalProfile
from repro.tensor.arrays import encode_array
from repro.tensor.lite import Interpreter

from helpers import scrub


class CheckFailed(AssertionError):
    """A workload's output check failed: the run reports no numbers."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """What one measured phase produced."""

    attempted: int
    ok: int
    #: Simulated latency of each successful operation, in seconds.
    sim_latencies: List[float]
    extra: Dict[str, object] = field(default_factory=dict)


def platform_counters(platform: SecureTFPlatform) -> Dict[str, float]:
    """Flattened, host-independent counter snapshot of a deployment."""
    return scrub(flatten_metrics(collect_metrics(platform).to_json()))


class Serve:
    """Closed-loop clients against three attested serving replicas."""

    name = "serve"
    #: How many of a run's platform seeds the simulated metrics pool:
    #: about 9000 requests, enough for p99 and short of the 10000 that
    #: would move the tail to the noisier p99.9.
    sim_seeds = 2
    clients = 48
    duration = 30.0
    deadline_budget = 1.0
    replicas = 3
    #: Queue room for every client: the spike saturates the pool (p99
    #: about five times p50, hedges fire) without shedding anyone.
    per_replica_limit = 16
    slices = 6

    def inputs(self, seed: int):
        return None

    def setup(self, seed: int, inputs):
        return ServingPlane(
            seed=seed,
            n_nodes=4,
            initial_replicas=self.replicas,
            mode=SgxMode.HW,
            router_policy=RouterPolicy(per_replica_limit=self.per_replica_limit),
        )

    def platform(self, plane: ServingPlane) -> SecureTFPlatform:
        return plane.platform

    def counters(self, plane: ServingPlane) -> Dict[str, float]:
        flat = platform_counters(plane.platform)
        admission = plane.router.admission.stats
        stats = plane.router.stats
        flat.update(
            {
                "serving.admitted": admission.admitted,
                "serving.retries": stats.retries,
                "serving.hedges_fired": stats.hedges_fired,
            }
        )
        return flat

    def run(self, plane: ServingPlane):
        # ``ServingPlane.run_traffic`` in slices: the heap executes the
        # same events in the same order, with pauses every few seconds.
        traffic = plane.make_traffic(
            self.clients,
            self.duration,
            profile=DiurnalProfile(),
            deadline_budget=self.deadline_budget,
        )
        completions = traffic.start()
        scheduler = plane.platform.scheduler
        # The clients stop at the absolute time ``duration``, so the
        # slices end on that clock too: no slice runs past the last
        # client into events ``run_traffic`` would never execute.
        for index in range(1, self.slices + 1):
            scheduler.run(until=self.duration * index / self.slices)
            yield
        for completion in completions:
            scheduler.run_until(completion)
        plane.quiesce()
        stats = traffic.stats
        # The client histogram keeps every raw sample; pooling episodes
        # for the tail needs them, not just its percentiles.
        latencies = [
            value
            for value, weight in stats.latency._samples
            for _ in range(weight)
        ]
        return Outcome(attempted=stats.sent, ok=stats.ok, sim_latencies=latencies,
                       extra={"stats": stats})

    def check(self, plane: ServingPlane, outcome: Outcome) -> None:
        stats = outcome.extra["stats"]
        try:
            plane.check_invariants()
            stats.assert_accounted()
        except AssertionError as exc:
            raise CheckFailed(f"serve: {exc}") from exc
        require(stats.sent > 0, "serve: no request was sent")
        require(
            len(outcome.sim_latencies) == stats.ok,
            "serve: a successful request has no latency sample",
        )

    def results(self, plane: ServingPlane, outcome: Outcome) -> Dict[str, object]:
        stats = outcome.extra["stats"]
        return {
            "trace": hashlib.sha256(plane.trace_bytes()).hexdigest(),
            "outcomes": [stats.sent, stats.ok, stats.overload, stats.deadline,
                         stats.transport, stats.other_errors],
            "latencies": outcome.sim_latencies,
        }

    def close(self, plane: ServingPlane) -> None:
        plane.close()


class Train:
    """Sharded, quantized, network-shielded synchronous MNIST training."""

    name = "train"
    sim_seeds = 4
    workers = 2
    batch = 100
    rounds = 5
    shards = 4

    def inputs(self, seed: int):
        train, _ = synthetic_mnist(
            n_train=self.rounds * self.workers * self.batch, n_test=1, seed=seed
        )
        return list(train.batches(self.batch))

    def setup(self, seed: int, batches):
        platform = SecureTFPlatform(PlatformConfig(n_nodes=3, seed=seed))
        platform.user_attest_cas()
        job = TrainingJob(
            platform,
            TrainingJobConfig(
                session="train",
                n_workers=self.workers,
                mode=SgxMode.HW,
                network_shield=True,
                learning_rate=0.0005,  # the paper's setting (section 5.4)
                seed=seed,
                ps_shards=self.shards,
                gradient_quantization_bits=8,
            ),
        )
        job.start()
        initial = {name: value.copy() for name, value in job.weights().items()}
        return {
            "platform": platform, "job": job, "batches": batches, "initial": initial,
        }

    def platform(self, state) -> SecureTFPlatform:
        return state["platform"]

    def counters(self, state) -> Dict[str, float]:
        return platform_counters(state["platform"])

    def run(self, state):
        job, batches = state["job"], state["batches"]
        losses, latencies = [], []
        for start in range(0, len(batches), self.workers):
            result = job.train(batches[start:start + self.workers])
            losses.append(result.final_loss)
            # One synchronous round processes one batch per worker; each
            # of those steps is charged the round's simulated time share.
            latencies.extend([result.wall_clock / result.steps] * result.steps)
            yield
        trained = {name: value.copy() for name, value in job.weights().items()}
        job.save_checkpoint()
        job.restore_checkpoint()
        return Outcome(
            attempted=len(batches),
            ok=len(latencies),
            sim_latencies=latencies,
            extra={"losses": losses, "trained": trained},
        )

    def check(self, state, outcome: Outcome) -> None:
        losses = outcome.extra["losses"]
        require(all(math.isfinite(loss) for loss in losses),
                f"train: non-finite loss in {losses}")
        trained = outcome.extra["trained"]
        # The loss falls: the trained weights score lower than the initial
        # ones on the first round's batches.  (Each round's loss is on
        # other batches, too noisy to compare with the first's.)
        before = self.data_loss(state, state["initial"])
        after = self.data_loss(state, trained)
        require(math.isfinite(after) and after < before,
                f"train: loss did not fall ({before} -> {after})")
        restored = state["job"].weights()
        require(sorted(trained) == sorted(restored),
                "train: restored checkpoint has other variables")
        for name, value in trained.items():
            require(np.array_equal(value, restored[name]),
                    f"train: restored {name!r} differs from the trained weights")

    def data_loss(self, state, weights) -> float:
        """Mean loss of ``weights`` over the first round's batches,
        evaluated by a worker after the measured phase."""
        worker = state["job"].workers[0]
        worker.load_weights(weights)
        batches = state["batches"][: self.workers]
        return sum(worker.evaluate_loss(x, y) for x, y in batches) / len(batches)

    def results(self, state, outcome: Outcome) -> Dict[str, object]:
        weights = outcome.extra["trained"]
        return {
            "losses": outcome.extra["losses"],
            "latencies": outcome.sim_latencies,
            "weights": {
                name: hashlib.sha256(value.tobytes()).hexdigest()
                for name, value in sorted(weights.items())
            },
        }

    def close(self, state) -> None:
        state["job"].stop()


class Boot:
    """Herd launch of attested densenet replicas, then one TLS client
    session per replica."""

    name = "boot"
    sim_seeds = 4
    replicas = 10
    #: ``classify`` calls over all client sessions, three per replica on
    #: average.  A herd's timing does not depend on the platform seed, so
    #: the seed splits the calls between the sessions (at least one each)
    #: and with that sets each replica's session length.  The total is
    #: fixed, so an episode's host work does not depend on the split.
    calls = 30
    session = "boot"

    def inputs(self, seed: int):
        _, test = synthetic_cifar10(n_train=1, n_test=self.calls, seed=seed)
        rng = np.random.default_rng(seed)
        per_session = 1 + rng.multinomial(
            self.calls - self.replicas, [1.0 / self.replicas] * self.replicas
        )
        model = pretrained_lite_model("densenet", seed=0)
        # The labels the replicas must answer, from a local NATIVE
        # interpreter, computed before any deployment holds memory.
        reference = Interpreter(model)
        reference.allocate_tensors()
        return {
            "model": model,
            "images": test.images,
            "labels": [reference.classify(image[None]) for image in test.images],
            "sessions": np.split(np.arange(self.calls), np.cumsum(per_session)[:-1]),
        }

    def setup(self, seed: int, inputs):
        model = inputs["model"]
        platform = SecureTFPlatform(
            PlatformConfig(n_nodes=self.replicas + 1, seed=seed)
        )
        platform.user_attest_cas()
        config = service_runtime_config("svc", SgxMode.HW)
        policy = platform.register_session(self.session, [config])
        paths = [
            deploy_encrypted_model(platform, self.session, platform.node(i), model)
            for i in range(1, self.replicas + 1)
        ]
        return {
            "platform": platform,
            "paths": paths,
            "policy": policy,
            "measurement": expected_measurement(config),
            "inputs": inputs,
        }

    def platform(self, state) -> SecureTFPlatform:
        return state["platform"]

    def counters(self, state) -> Dict[str, float]:
        return platform_counters(state["platform"])

    def run(self, state):
        platform = state["platform"]
        images = state["inputs"]["images"]
        sessions = state["inputs"]["sessions"]
        services = [
            InferenceService(
                platform, self.session, platform.node(i + 1), path,
                mode=SgxMode.HW, name="svc",
            )
            for i, path in enumerate(state["paths"])
        ]
        state["services"] = services
        launch_fleet(platform, services, stagger=0.0)  # a herd: all at once
        yield
        user = platform.node(0)
        labels: List[List[int]] = []
        latencies: List[float] = []
        for index, service in enumerate(services):
            address = service.serve(f"svc-{index}")
            opened = user.clock.now
            key, cert = platform.cas.keys.new_tls_identity(
                f"user/{index}", now=user.clock.now
            )
            shield = NetworkShield(
                TlsIdentity(Ed25519PrivateKey(key), Certificate.from_bytes(cert)),
                [platform.cas.keys.ca.public_key()],
                platform.cost_model,
                user.clock,
                user.rng.child(f"user-{index}"),
            )
            client = SecureRpcClient(platform.network, f"user-{index}", user, shield)
            conn = client.connect(address)
            answers = []
            for image in images[sessions[index]]:
                reply = conn.call("classify", encoding.encode(encode_array(image)))
                answers.append(int(encoding.decode(reply)["label"]))
            labels.append(answers)
            # The replica's cold start plus its client's whole session.
            latencies.append(
                service.stats.startup_latency + (user.clock.now - opened)
            )
            yield
        return Outcome(
            attempted=len(services),
            ok=len(latencies),
            sim_latencies=latencies,
            extra={"labels": labels},
        )

    def check(self, state, outcome: Outcome) -> None:
        measurement = state["measurement"]
        require(measurement in state["policy"].allowed_measurements,
                "boot: the registered policy does not admit the replica build")
        for service in state["services"]:
            require(service.identity is not None,
                    f"boot: {service.node.node_id} was never provisioned")
            require(service.identity.session == self.session,
                    f"boot: {service.node.node_id} provisioned into "
                    f"{service.identity.session!r}")
            require(service.runtime.measurement == measurement,
                    f"boot: {service.node.node_id} runs an unregistered build")
        labels = state["inputs"]["labels"]
        sessions = state["inputs"]["sessions"]
        for index, answers in enumerate(outcome.extra["labels"]):
            expected = [labels[call] for call in sessions[index]]
            require(answers == expected,
                    f"boot: replica {index} answered {answers}, the native "
                    f"interpreter says {expected}")

    def results(self, state, outcome: Outcome) -> Dict[str, object]:
        return {
            "labels": outcome.extra["labels"],
            "latencies": outcome.sim_latencies,
            "cold_starts": [
                service.stats.startup_latency for service in state["services"]
            ],
        }

    def close(self, state) -> None:
        for service in state.get("services", ()):
            service.stop()


WORKLOADS = {workload.name: workload for workload in (Serve(), Train(), Boot())}
