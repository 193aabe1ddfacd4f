"""Android app substrate and static-analysis module (Section III-C).

The paper analyzes real APKs with a toolchain of ValHunter (Android
property graph over a graph database), DexHunter (unpacking), IccTA
(intent resolution), EdgeMiner (implicit callbacks), and FlowDroid
(taint paths).  Offline we model the APK itself -- a manifest plus a
dex-like register-based bytecode IR -- and implement each analysis
against that model:

- :mod:`repro.android.dex`          bytecode IR (classes, methods,
  instructions)
- :mod:`repro.android.manifest`     AndroidManifest model
- :mod:`repro.android.apk`          the APK container
- :mod:`repro.android.packer`       packing / DexHunter-style unpacking
- :mod:`repro.android.api_db`       sensitive APIs, content-provider
  URIs, URI fields (PScout), sink APIs
- :mod:`repro.android.graph`        the directed graph the analyses
  share
- :mod:`repro.android.callgraph`    method call graph
- :mod:`repro.android.callbacks`    implicit callback edges (EdgeMiner)
- :mod:`repro.android.intents`      intent source/target resolution (IccTA)
- :mod:`repro.android.apg`          the Android property graph
- :mod:`repro.android.entrypoints`  lifecycle / component / UI entries
- :mod:`repro.android.reachability` entry-point reachability
- :mod:`repro.android.uris`         content-provider URI constant analysis
- :mod:`repro.android.taint`        source-to-sink taint paths (FlowDroid)
- :mod:`repro.android.libs`         third-party library detection
- :mod:`repro.android.static_analysis`  the module facade producing
  Collect_code and Retain_code
"""

from repro.android.dex import DexClass, DexFile, Instruction, Method
from repro.android.manifest import AndroidManifest, Component
from repro.android.apk import Apk
from repro.android.static_analysis import (
    StaticAnalysisResult,
    analyze_apk,
)

__all__ = [
    "DexClass",
    "DexFile",
    "Instruction",
    "Method",
    "AndroidManifest",
    "Component",
    "Apk",
    "StaticAnalysisResult",
    "analyze_apk",
]
