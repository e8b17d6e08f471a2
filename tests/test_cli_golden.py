"""Golden CLI outputs: sha256 of stdout and the exit code for fixed argv.

Every command in every format, plus edge cases (degree 4, low degree, a
genus with no certificate, a table range starting at degree 4, degrees up
to 10**6) and usage errors.  The digests pin the output byte for byte, so
any change to how a record is rendered shows here.
"""

from __future__ import annotations

import hashlib

import pytest

from genusgaps import cli

GOLDEN = {
    "status 7 30 --format table": ("c1a84740f4744b169b4d4d4eec29bbbb0a155362715d25e4bf7cc5876af6f530", 0),
    "status 7 30 --format json": ("ef63736e32da4e42991ac3680f980a24ae0ecb8353d00a11c3ec6d63251f6d0c", 0),
    "status 7 30 --format csv": ("4e4e1cf5a1e1091a2aa8bb01395f62e5e2fdd9cb288888c6944ba8e8ad83d793", 0),
    "decompose 7 --format table": ("44a8418f2135b5618d330f03b16ab2f5facf3fff47ba779fd994ecffdf959351", 0),
    "decompose 7 --format json": ("5894516f6025e2893052e081c55c627a7014c9c5054084634bd87eff80887a68", 0),
    "decompose 7 --format csv": ("c47b6d19c0ac2a5050528563d7b038d023b32dc3d56c92da361663b8cd0753f4", 0),
    "bounds 9 --format table": ("a2e866ae2c95d91b2aacea732b2b6e1258d6ec91386f59da5aa9167c479b70ad", 0),
    "bounds 9 --format json": ("170ea3056f4fd975e0f5a03f700ed5deddc8211b8973462431e6a11260837c40", 0),
    "bounds 9 --format csv": ("d9aeba541f608da6b339258b8f7902c90dc97804256af2593a0346170ad02e55", 0),
    "table 5 8 --format table": ("e35dc6f1e7d1e68913ec6711aff97c398c88869c1281145ffbbdc88511360463", 0),
    "table 5 8 --format json": ("433034ad40f516860a1ff6866285c3706a66c894ba48a43c05c9aebfb5c9b6f3", 0),
    "table 5 8 --format csv": ("0c7f4afbf53ce750430e333048a1e9f43e5be11a3c5ee33e93147acee5244b40", 0),
    "certify 7 30 --format table": ("bc4bde83591ceda70cded897e37665d157366f9e49a1949f22ef245b29b4e5de", 0),
    "certify 7 30 --format json": ("44c63032d10f701c172a3789f3ac8353901eaebbb60d34151d2a90460c3c6add", 0),
    "certify 7 30 --format csv": ("64acad61d6516fa99f3785d7b4ddac57f3e57c451cec136ce62e954df0c04e9f", 0),
    "verify all --format table": ("4dd20cfdf82fa5e7e468d9fb96dc7ee1899a8d517fe653965c9bd96b202fe3d8", 0),
    "verify all --format json": ("ebc89a027b6e854e81692225a98da4b59199293a132e4c84d6fd9aa3703aa039", 0),
    "verify all --format csv": ("1934de8b370d5d84a26ad54435f1df58bd7d413997af56f5f8be3c9022bb06e9", 0),
    "decompose 4 --format table": ("89791e2eda10248cff69857eafc175a146751baf0aa5d5c741bd06e88bc7cf85", 0),
    "decompose 4 --format json": ("3a3787d53f2d3be75dfdef8416fd40bdfd50f81d6cd7bbee1bc45b89aecae4e7", 0),
    "decompose 4 --format csv": ("b26ff20ed4e913c21449ced9087adb88f76b6e90ef28afc805f5f0479a693412", 0),
    "status 3 5 --format table": ("4781ea93d295c45eeeb717e89621f1a1c7485814c49557606e97ae59f0349cd3", 0),
    "status 3 5 --format json": ("c03dc4c48bde3c44db1099425f8eb6dcc18550789793dc5af32d8041224f0115", 0),
    "status 3 5 --format csv": ("ac62b76d87e13945ac95ae6e97af29f27422e0a6082d7a43635600aa5ea97d70", 0),
    "certify 6 26 --format table": ("f3ccb2a9dbfbfbfb9eb6a47923e60cacd69b244665104f1556ecdd5a730990a8", 0),
    "certify 6 26 --format json": ("b9054e093365fe956712be0aee84e2053af4f8de827e5d149bbe0f947dfa6df5", 0),
    "certify 6 26 --format csv": ("928ac67decfdcd7cf2ea70c98a5ac67cd1afd00b80b4a7105bf322b64f7a78de", 0),
    "table 4 9 --format table": ("ef1908e577dfc14938f050c36d10024943f22422064d766e1cd2ff9452b254d1", 0),
    "table 4 9 --format json": ("7bb0f3a8ff86b6872978430784bbc359bbc9b0a678dd3595cafdb7f010aac4c9", 0),
    "table 4 9 --format csv": ("372a0da5c5b4eda021a25c96ce4250476cd30425f80ca96a06f7527c0f90d0f2", 0),
    "verify cases": ("de2d02d4bfda46f756e03d94803c265d51e6f59ebdb19d553d6289dcdd7469c2", 0),
    "verify kappa --format csv": ("fdfa04d0142cbcd7c1dc8dec01acc6ac059219629a5f7087df48ab38a59c5bbc", 0),
    "status 6 13": ("6f706595c404cad30af7761a2a7b7a48ed4c1d609c2cc2c17f30274e08ddbc37", 0),
    "certify 3 0": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "decompose 3 --format json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "table 9 4": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "status 6 -1 --format csv": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "decompose 0": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "bounds -3": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "certify 0 5": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    # large degrees: a genus between windows 50 and 51, one in window 50, and the horizon searches
    "status 1000000 1000000000000000": ("ae3411feb9a8faed80f1129ae5466d4ad500a56829f1eb1bc1927ed63c77a749", 0),
    "certify 100000 250115000003": ("826c21311398e4f5f4c58af98c0364d2b777aee28acca2fe78405abe1cfc0ba7", 0),
    "status 100000 250115000001 --format json": ("e7681e1c490f0e6e644975cf1b98a9793ce2c0da9e1a46b23829ee0f2891fb3c", 0),
    "bounds 1000000 --format csv": ("d42fccfb7b5cffffd78883de6034cba36df1c2bc9d056ca303d6a2e0f40a6f02", 0),
    "decompose 50000 --format csv": ("1a92bc36775ac40c433e48059ff5c551a769e977f5714b537951223c2804dc81", 0),
}

# stderr of the usage errors above, byte for byte
GOLDEN_STDERR = {
    "certify 3 0": "error: certificates exist only for degree >= 4, got 3"
    " (lower degrees carry curves of every genus)\n",
    "decompose 3 --format json": "error: no gap decomposition for degree 3: surfaces of"
    " degree at most 3 are rational and carry irreducible curves of every genus\n",
    "table 9 4": "error: need 4 <= d_min <= d_max, got d_min=9, d_max=4\n",
    "status 6 -1 --format csv": "error: genus must be >= 0, got -1\n",
    # below degree 1 there is no surface, so the library's degree check speaks
    "decompose 0": "error: surface degree must be >= 1, got 0\n",
    "bounds -3": "error: surface degree must be >= 1, got -3\n",
    "certify 0 5": "error: surface degree must be >= 1, got 0\n",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_stdout_and_exit_code(capsys, argv):
    code = cli.main(argv.split())
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == GOLDEN[argv]


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDERR))
def test_usage_error_stderr(capsys, argv):
    cli.main(argv.split())
    assert capsys.readouterr().err == GOLDEN_STDERR[argv]


def test_every_command_in_every_format():
    covered = {(argv.split()[0], argv.split()[-1]) for argv in GOLDEN if "--format" in argv}
    commands = ("status", "decompose", "bounds", "table", "certify", "verify")
    assert covered >= {(c, f) for c in commands for f in ("table", "json", "csv")}
