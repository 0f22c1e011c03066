"""Privacy-preserving plugins: DP, HE, SA (the paper's §3.4.4 suite).

* :mod:`repro.privacy.dp` — L2 clipping + Gaussian/Laplace noise with an
  (ε, δ) budget accountant (PETINA substitute);
* :mod:`repro.privacy.paillier` / :mod:`repro.privacy.he` — the Paillier
  additively-homomorphic cryptosystem over fixed-point-packed updates
  (TenSEAL/SEAL substitute; genuine big-int modular arithmetic);
* :mod:`repro.privacy.secure_agg` — HMAC-derived pairwise masks that cancel
  in the sum, exactly the prototype the paper describes (HMAC + hashlib
  shared keys, to be replaced by Diffie-Hellman).
"""

from repro.utils.lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "repro.privacy.accountant": ["PrivacyAccountant"],
    "repro.privacy.dp": ["DifferentialPrivacy", "gaussian_sigma", "laplace_scale"],
    "repro.privacy.he": ["HomomorphicEncryption"],
    "repro.privacy.paillier": ["PaillierKeyPair", "PaillierPublicKey", "generate_keypair"],
    "repro.privacy.secure_agg": ["SecureAggregation"],
})
