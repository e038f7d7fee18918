BEGIN TRANSACTION;
CREATE TABLE entries (
    key TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    offset INTEGER NOT NULL,
    length INTEGER NOT NULL,
    payload_hash TEXT NOT NULL,
    config_hash TEXT NOT NULL,
    page_url TEXT,
    probe TEXT,
    created_unix REAL NOT NULL
);
INSERT INTO "entries" VALUES('d804df2cab73a6f71e7a71750c440cc9','paired',0,6728,'11e88599bcb8ef9f744d804add28c2df','e0425d587797b618a2b8158e508a10bd','https://www.youtube.com/','utah-0',1.7924163738305814266e+09);
INSERT INTO "entries" VALUES('330eec1fe1053710477a7e608ffcec17','paired',6728,4311,'b22dc7ec008ab43be9b3ac7308e94ffc','e0425d587797b618a2b8158e508a10bd','https://www.wordpress.com/','utah-0',1.79241637383081889147e+09);
INSERT INTO "entries" VALUES('c043bd8b811390b30bd6e231a6842549','paired',11039,9236,'ba90b9441edf2357fd5e155eb534edf0','e0425d587797b618a2b8158e508a10bd','https://www.spotify.com/','utah-0',1.79241637384502792355e+09);
INSERT INTO "entries" VALUES('e3fa29afe7eba284d140bcae96c37293','consecutive',20275,5466,'280a597fc7bbebb39d04ca58c9967172','','https://www.youtube.com/','consecutive-h2-only',1.79241637385327911378e+09);
CREATE TABLE journal (
    run_name TEXT NOT NULL,
    seq INTEGER NOT NULL,
    key TEXT NOT NULL,
    source TEXT NOT NULL,
    created_unix REAL NOT NULL,
    PRIMARY KEY (run_name, seq)
);
INSERT INTO "journal" VALUES('legacy',0,'d804df2cab73a6f71e7a71750c440cc9','fresh',1.79241637383101487155e+09);
INSERT INTO "journal" VALUES('legacy',1,'330eec1fe1053710477a7e608ffcec17','fresh',1.79241637383105540271e+09);
INSERT INTO "journal" VALUES('walk',0,'e3fa29afe7eba284d140bcae96c37293','fresh',1.79241637385340547555e+09);
CREATE TABLE meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
INSERT INTO "meta" VALUES('schema_version','3');
CREATE TABLE run_visits (
    run_name TEXT NOT NULL,
    position INTEGER NOT NULL,
    key TEXT NOT NULL,
    PRIMARY KEY (run_name, position)
);
INSERT INTO "run_visits" VALUES('legacy',0,'d804df2cab73a6f71e7a71750c440cc9');
INSERT INTO "run_visits" VALUES('legacy',1,'330eec1fe1053710477a7e608ffcec17');
CREATE TABLE runs (
    name TEXT PRIMARY KEY,
    config_hash TEXT NOT NULL,
    created_unix REAL NOT NULL,
    complete INTEGER NOT NULL DEFAULT 0,
    n_visits INTEGER NOT NULL DEFAULT 0
);
INSERT INTO "runs" VALUES('legacy','e0425d587797b618a2b8158e508a10bd',1.79241637382106232647e+09,1,2);
CREATE INDEX idx_run_visits_key ON run_visits (key);
CREATE INDEX idx_journal_key ON journal (key);
COMMIT;
